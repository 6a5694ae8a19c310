// Command lppa-load is the unified load harness: it drives one-shot
// rounds and the epochal service through configurable workload
// runs — population sweeps, density mixes, Poisson/burst arrivals with
// churn, seeded chaos, admission rate limits — and emits a versioned
// LOAD_*.json report with throughput, per-phase latency percentiles, and
// an embedded SLO block the compare gate enforces in CI.
//
// Usage:
//
//	lppa-load run -n 10000 -density mixed -variants interned,service -o LOAD_PR15.json
//	lppa-load compare LOAD_PR15.json candidate.json
//
// The run subcommand sweeps the cross product of -n populations and
// -variants; compare exits nonzero when the candidate misses any SLO the
// baseline records (and fails closed when the baseline is missing or has
// no SLO block).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"lppa/internal/cli"
	"lppa/internal/faults"
	"lppa/internal/load"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lppa-load:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return compareMain(args[1:], out)
		case "run":
			args = args[1:]
		}
	}
	return runMain(args, out)
}

func runMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lppa-load run", flag.ContinueOnError)
	rf := cli.RoundFlags{Workers: runtime.GOMAXPROCS(0), Density: "mixed"}
	rf.Register(fs)
	rf.RegisterClient(fs)
	populations := fs.String("n", "10000", "comma-separated bidder populations to sweep")
	variants := fs.String("variants", "interned,service",
		fmt.Sprintf("comma-separated execution variants to sweep (%s)", strings.Join(load.Variants(), "|")))
	rounds := fs.Int("rounds", 5, "rounds per run (for service: the epoch budget spanning the arrival horizon)")
	epochSeconds := fs.Float64("epoch-seconds", 1, "service seal cadence on the logical clock, in seconds")
	rateLimit := fs.Float64("rate-limit", 0, "service admission token rate (submissions per logical second); 0 admits everything")
	seed := fs.Int64("seed", 1, "root seed; same seed + same config = byte-identical award transcripts")
	outPath := fs.String("o", "", "write the report to this file (default stdout)")
	headroom := fs.Float64("slo-headroom", 4,
		"embedded SLO slack: throughput floor = measured/headroom, phase p99 ceiling = measured*headroom")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address while the sweep runs")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if err := rf.Validate(); err != nil {
		return err
	}
	if err := cli.ServePprof(*pprofAddr); err != nil {
		return err
	}
	if *rounds < 1 {
		return fmt.Errorf("-rounds %d, need at least 1", *rounds)
	}
	chaos, err := loadChaos(&rf)
	if err != nil {
		return err
	}
	ns, err := parseInts(*populations)
	if err != nil {
		return fmt.Errorf("-n: %w", err)
	}
	var names []string
	for _, v := range strings.Split(*variants, ",") {
		if v = strings.TrimSpace(v); v != "" {
			names = append(names, v)
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-variants is empty")
	}

	report := &load.Report{
		Schema: load.Schema,
		GOOS:   runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
		Seed: *seed,
	}
	for _, n := range ns {
		for _, variant := range names {
			cfg := load.Config{
				Bidders: n, Density: rf.Density, Variant: variant,
				Workers: rf.Workers,
				Rounds:  *rounds, Seed: *seed,
				EpochSeconds: *epochSeconds, RateLimit: *rateLimit,
				Chaos: chaos,
			}
			fmt.Fprintf(os.Stderr, "lppa-load: running %s...\n", cfg.Name())
			rep, err := load.Run(cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", cfg.Name(), err)
			}
			fmt.Fprintf(os.Stderr, "lppa-load: %s: %.2f rounds/sec, %d epochs, %d shed, digest %.12s\n",
				rep.Name, rep.RoundsPerSec, rep.Epochs, rep.Shed, rep.AwardDigest)
			report.Runs = append(report.Runs, *rep)
		}
	}
	slo, err := load.DeriveSLO(report, *headroom)
	if err != nil {
		return err
	}
	report.SLO = slo
	if err := report.Validate(); err != nil {
		return fmt.Errorf("emitting invalid report: %w", err)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return report.WriteJSON(out)
}

// loadChaos maps the shared -chaos flags onto the harness's in-process
// fault model: only the probabilistic frame classes (drop, dup) exist
// without a wire, so the connection-level classes are rejected rather
// than silently ignored.
func loadChaos(rf *cli.RoundFlags) (faults.Config, error) {
	cc, err := rf.ChaosConfig()
	if err != nil || cc == nil {
		return faults.Config{}, err
	}
	if cc.DropFrame == 0 && cc.DupFrame == 0 {
		return faults.Config{}, fmt.Errorf("-chaos %s has no in-process equivalent (use drop or dup)", rf.Chaos)
	}
	return faults.Config{DropFrame: cc.DropFrame, DupFrame: cc.DupFrame}, nil
}

func compareMain(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lppa-load compare", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: lppa-load compare <baseline.json> <candidate.json>")
	}
	violations, err := load.CompareFiles(fs.Arg(0), fs.Arg(1))
	if err != nil {
		return err
	}
	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(out, "SLO VIOLATION:", v)
		}
		return fmt.Errorf("%d SLO violation(s) against %s", len(violations), fs.Arg(0))
	}
	fmt.Fprintf(out, "load SLO check passed against %s\n", fs.Arg(0))
	return nil
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no populations in %q", csv)
	}
	return out, nil
}
