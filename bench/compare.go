package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// minPairs is the fewest (base, candidate) run pairs compare accepts.
const minPairs = 10

// Verdicts, one per (workload, metric) row.
const (
	better     = "better"
	worse      = "worse"
	unresolved = "unresolved"
	unchanged  = "unchanged"
	agrees     = "agrees"
	disagrees  = "disagrees"
)

// verdict applies the comparison rule to paired per-run values of one
// metric (base[i] and cand[i] share a seed). A gain needs the candidate
// to win at least nine tenths of the pairs, ties counting for neither,
// and its median to beat the base median by more than the base's
// interquartile range. A regression needs the candidate median worse than
// the base median by more than bound (a share of the base median). Below
// that, a row whose run-to-run spread exceeds the bound is unresolved —
// unless every candidate run beats every base run — rather than unchanged.
func verdict(base, cand []float64, lowerIsBetter bool, bound float64) string {
	gain := func(b, c float64) float64 { // > 0: the candidate is better
		if lowerIsBetter {
			return b - c
		}
		return c - b
	}
	wins := 0
	for i := range base {
		if gain(base[i], cand[i]) > 0 {
			wins++
		}
	}
	bq1, bmed, bq3 := quartiles(base)
	cq1, cmed, cq3 := quartiles(cand)
	gap := gain(bmed, cmed)
	if wins*10 >= 9*len(base) && gap > bq3-bq1 {
		return better
	}
	if -gap > bound*math.Abs(bmed) {
		return worse
	}
	spread := math.Max(relative(bq3-bq1, bmed), relative(cq3-cq1, cmed))
	if spread > bound && !allBetter(base, cand, gain) {
		return unresolved
	}
	return unchanged
}

// agreement checks two sets of runs of the same code: their medians must
// lie within bound of each other.
func agreement(base, cand []float64, bound float64) string {
	_, bmed, _ := quartiles(base)
	_, cmed, _ := quartiles(cand)
	if math.Abs(cmed-bmed) > bound*math.Abs(bmed) {
		return disagrees
	}
	return agrees
}

func relative(spread, med float64) float64 {
	if med == 0 {
		return math.Inf(1)
	}
	return spread / math.Abs(med)
}

func allBetter(base, cand []float64, gain func(b, c float64) float64) bool {
	for _, b := range base {
		for _, c := range cand {
			if gain(b, c) <= 0 {
				return false
			}
		}
	}
	return true
}

// loadResults reads every untraced result file in dir, by workload and
// seed.
func loadResults(dir string) (map[string]map[int64]*result, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*-trace0.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]map[int64]*result)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = make(map[int64]*result)
		}
		out[r.Workload][r.Seed] = &r
	}
	return out, nil
}

// compareMain is `lppa-bench compare [-agree] [-spec file] <base> <cand>`.
// It exits 0 when nothing regressed (compare) or everything agrees
// (-agree), 1 when something did not, and 2 when the two sets cannot be
// compared: too few pairs, mismatched fingerprints, differing award
// digests, or failed runs.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	agree := fs.Bool("agree", false, "check that two sets of runs of the same code agree within the bounds")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding the metrics' bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: lppa-bench compare [-agree] [-spec BENCHMARK.json] <base-dir> <cand-dir>")
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintf(stderr, "compare: %v\n", err)
		return 2
	}
	base, err := loadResults(fs.Arg(0))
	if err == nil {
		var cand map[string]map[int64]*result
		if cand, err = loadResults(fs.Arg(1)); err == nil {
			return compareSets(stdout, stderr, sp, base, cand, *agree)
		}
	}
	fmt.Fprintf(stderr, "compare: %v\n", err)
	return 2
}

func compareSets(stdout, stderr io.Writer, sp *spec, base, cand map[string]map[int64]*result, agree bool) int {
	code, compared := 0, 0
	fmt.Fprintf(stdout, "%-13s %-18s %26s %26s %8s %6s  %s\n", "workload", "metric",
		"base median [q1 q3]", "cand median [q1 q3]", "delta", "wins", "verdict")
	for _, w := range sp.Workloads {
		if len(base[w.Name]) == 0 && len(cand[w.Name]) == 0 {
			continue // not run on either side
		}
		compared++
		var seeds []int64
		for s := range base[w.Name] {
			if cand[w.Name][s] != nil {
				seeds = append(seeds, s)
			}
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		if len(seeds) < minPairs {
			fmt.Fprintf(stderr, "compare: %s has %d paired seeds, need %d\n", w.Name, len(seeds), minPairs)
			return 2
		}
		baseFirst := 0
		for _, s := range seeds {
			b, c := base[w.Name][s], cand[w.Name][s]
			switch {
			case !b.Fingerprint.sameEnvironment(c.Fingerprint) || (agree && b.Fingerprint.Commit != c.Fingerprint.Commit):
				fmt.Fprintf(stderr, "compare: %s seed %d: fingerprints differ: %+v vs %+v\n", w.Name, s, b.Fingerprint, c.Fingerprint)
				return 2
			case b.Digest != c.Digest:
				fmt.Fprintf(stderr, "compare: %s seed %d: award digests differ: %s vs %s\n", w.Name, s, b.Digest, c.Digest)
				return 2
			case !b.Correct || !c.Correct:
				fmt.Fprintf(stderr, "compare: %s seed %d: a run failed its correctness checks\n", w.Name, s)
				return 2
			case c.Failed > b.Failed || (agree && c.Failed != b.Failed):
				fmt.Fprintf(stderr, "compare: %s seed %d: failed operations %d vs %d\n", w.Name, s, b.Failed, c.Failed)
				code = 1
			}
			if b.Started.Before(c.Started) {
				baseFirst++
			}
		}
		for _, mdef := range sp.EndToEnd {
			bv, cv := make([]float64, len(seeds)), make([]float64, len(seeds))
			for i, s := range seeds {
				bv[i] = base[w.Name][s].EndToEnd[mdef.Name].Value
				cv[i] = cand[w.Name][s].EndToEnd[mdef.Name].Value
			}
			var v string
			if agree {
				v = agreement(bv, cv, mdef.Bound)
			} else {
				v = verdict(bv, cv, mdef.Better == "lower", mdef.Bound)
			}
			if v == worse || v == disagrees {
				code = 1
			}
			bq1, bmed, bq3 := quartiles(bv)
			cq1, cmed, cq3 := quartiles(cv)
			wins := 0
			for i := range bv {
				if (mdef.Better == "lower" && cv[i] < bv[i]) || (mdef.Better == "higher" && cv[i] > bv[i]) {
					wins++
				}
			}
			fmt.Fprintf(stdout, "%-13s %-18s %10.4g [%6.4g %6.4g] %10.4g [%6.4g %6.4g] %+7.2f%% %3d/%-2d  %s (bound %g%%, %s)\n",
				w.Name, mdef.Name, bmed, bq1, bq3, cmed, cq1, cq3, 100*(cmed-bmed)/bmed, wins, len(seeds),
				v, 100*mdef.Bound, mdef.Unit)
		}
		fmt.Fprintf(stdout, "%-13s base ran first in %d of %d pairs\n", w.Name, baseFirst, len(seeds))
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "compare: no untraced results in either directory")
		return 2
	}
	return code
}
