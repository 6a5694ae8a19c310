// Package load is the unified workload harness behind cmd/lppa-load: it
// composes the epochal service, the density mixes, the arrival/churn
// model, seeded chaos drops, and the round tracer into configurable
// closed- and open-loop runs, and reports the result as a versioned
// LOAD_*.json document with an SLO comparison gate. The BENCH_*.json
// snapshots answer "how fast is this function"; a load report answers
// "how many rounds per second does the composed system sustain at this
// population, and where does the latency go".
package load

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// Schema is the report version tag. Decode refuses anything else, so an
// old gate never silently half-reads a future report.
const Schema = "lppa-load/v1"

// PhaseStats is one span name's latency profile over a run, in
// milliseconds. Percentiles are exact nearest-rank over every span the
// run produced (obs.LatencySummary).
type PhaseStats struct {
	Count  int     `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
}

// RunReport is one workload run. The accounting block (submissions,
// admissions, awards, digest) is a pure function of the config and seed;
// the timing block (wall seconds, throughput, allocations, phase
// latencies) is what the machine did with it. StripTiming separates the
// two for the determinism contract.
type RunReport struct {
	Name    string `json:"name"`
	Variant string `json:"variant"`
	Density string `json:"density"`
	Bidders int    `json:"bidders"`
	Workers int    `json:"workers"`

	// Deterministic workload accounting.
	Rounds      int    `json:"rounds"`
	Epochs      int    `json:"epochs"`
	Submitted   int    `json:"submitted"`
	Admitted    int    `json:"admitted"`
	Shed        int    `json:"shed"`
	Dropped     int    `json:"dropped"`
	Duplicated  int    `json:"duplicated,omitempty"`
	Resubmitted int    `json:"resubmitted,omitempty"`
	Departed    int    `json:"departed,omitempty"`
	Degraded    int    `json:"degraded_rounds"`
	Winners     int    `json:"winners"`
	Revenue     uint64 `json:"revenue"`
	AwardDigest string `json:"award_digest"`

	// Timing.
	WallSeconds    float64               `json:"wall_seconds"`
	RoundsPerSec   float64               `json:"rounds_per_sec"`
	EpochsPerSec   float64               `json:"epochs_per_sec,omitempty"`
	AllocsPerRound float64               `json:"allocs_per_round"`
	Phases         map[string]PhaseStats `json:"phases,omitempty"`
}

// StripTiming returns a copy with every machine-dependent field zeroed:
// what remains must be byte-identical between two runs of the same config
// and seed. Phase sample counts are deterministic (one span per phase per
// round), so they survive; their durations do not.
func (r RunReport) StripTiming() RunReport {
	r.WallSeconds, r.RoundsPerSec, r.EpochsPerSec, r.AllocsPerRound = 0, 0, 0, 0
	if r.Phases != nil {
		stripped := make(map[string]PhaseStats, len(r.Phases))
		for name, ps := range r.Phases {
			stripped[name] = PhaseStats{Count: ps.Count}
		}
		r.Phases = stripped
	}
	return r
}

// SLO is the gate recorded next to a snapshot: minimum sustained
// throughput per run name, and per-phase p99 ceilings. Compare fails a
// candidate report that misses any recorded target — or that no longer
// contains a run the SLO names.
type SLO struct {
	MinRoundsPerSec map[string]float64            `json:"min_rounds_per_sec,omitempty"`
	MaxPhaseP99Ms   map[string]map[string]float64 `json:"max_phase_p99_ms,omitempty"`
}

// Report is the LOAD_*.json root.
type Report struct {
	Schema string      `json:"schema"`
	GOOS   string      `json:"goos,omitempty"`
	GOARCH string      `json:"goarch,omitempty"`
	CPUs   int         `json:"cpus,omitempty"`
	Seed   int64       `json:"seed"`
	Runs   []RunReport `json:"runs"`
	SLO    *SLO        `json:"slo,omitempty"`
}

// Run returns the named run (nil when absent).
func (r *Report) Run(name string) *RunReport {
	for i := range r.Runs {
		if r.Runs[i].Name == name {
			return &r.Runs[i]
		}
	}
	return nil
}

// StripTiming is RunReport.StripTiming over the whole document (the SLO
// block is derived from timing and goes with it).
func (r *Report) StripTiming() *Report {
	out := *r
	out.GOOS, out.GOARCH, out.CPUs = "", "", 0
	out.SLO = nil
	out.Runs = make([]RunReport, len(r.Runs))
	for i, run := range r.Runs {
		out.Runs[i] = run.StripTiming()
	}
	return &out
}

// Validate rejects structurally broken reports: wrong schema, duplicate
// or empty run names, negative counts, or non-monotone percentiles. The
// fuzz target pins that no input reaches the comparator without passing
// through here.
func (r *Report) Validate() error {
	if r.Schema != Schema {
		return fmt.Errorf("load: schema %q, want %q", r.Schema, Schema)
	}
	if len(r.Runs) == 0 {
		return fmt.Errorf("load: report has no runs")
	}
	seen := make(map[string]bool, len(r.Runs))
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.Name == "" {
			return fmt.Errorf("load: run %d has no name", i)
		}
		if seen[run.Name] {
			return fmt.Errorf("load: duplicate run name %q", run.Name)
		}
		seen[run.Name] = true
		if run.Bidders <= 0 {
			return fmt.Errorf("load: run %q: %d bidders", run.Name, run.Bidders)
		}
		for what, v := range map[string]int{
			"rounds": run.Rounds, "epochs": run.Epochs, "submitted": run.Submitted,
			"admitted": run.Admitted, "shed": run.Shed, "dropped": run.Dropped,
			"duplicated": run.Duplicated, "resubmitted": run.Resubmitted,
			"departed": run.Departed, "degraded_rounds": run.Degraded, "winners": run.Winners,
		} {
			if v < 0 {
				return fmt.Errorf("load: run %q: negative %s %d", run.Name, what, v)
			}
		}
		for what, v := range map[string]float64{
			"wall_seconds": run.WallSeconds, "rounds_per_sec": run.RoundsPerSec,
			"epochs_per_sec": run.EpochsPerSec, "allocs_per_round": run.AllocsPerRound,
		} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("load: run %q: bad %s %v", run.Name, what, v)
			}
		}
		for phase, ps := range run.Phases {
			if ps.Count < 0 || ps.P50Ms < 0 || ps.P50Ms > ps.P95Ms || ps.P95Ms > ps.P99Ms || ps.P99Ms > ps.MaxMs {
				return fmt.Errorf("load: run %q phase %q: non-monotone percentiles %+v", run.Name, phase, ps)
			}
		}
	}
	if r.SLO != nil {
		for name, v := range r.SLO.MinRoundsPerSec {
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("load: slo min_rounds_per_sec[%q] = %v, need positive finite", name, v)
			}
		}
		for name, phases := range r.SLO.MaxPhaseP99Ms {
			for phase, v := range phases {
				if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					return fmt.Errorf("load: slo max_phase_p99_ms[%q][%q] = %v, need positive finite", name, phase, v)
				}
			}
		}
	}
	return nil
}

// Decode parses and validates one report. Malformed, truncated, or
// wrong-schema input errors; it never panics (FuzzLoadReportDecode).
func Decode(data []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("load: decode report: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ReadReport is Decode over a file. A missing file is an error — the
// compare gate fails closed on an absent baseline.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("load: read report: %w", err)
	}
	r, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("load: %s: %w", path, err)
	}
	return r, nil
}

// WriteJSON emits the report with stable formatting (indented, sorted
// keys via encoding/json's map ordering).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DeriveSLO records targets from a snapshot with the given headroom
// factor: min throughput = measured/headroom, max phase p99 = measured ×
// headroom — loose enough to survive machine noise, tight enough that an
// order-of-magnitude regression fails CI. Phases with sub-millisecond
// p99s are skipped (pure noise at that scale).
func DeriveSLO(r *Report, headroom float64) (*SLO, error) {
	if headroom <= 1 {
		return nil, fmt.Errorf("load: slo headroom %v, need > 1", headroom)
	}
	slo := &SLO{
		MinRoundsPerSec: map[string]float64{},
		MaxPhaseP99Ms:   map[string]map[string]float64{},
	}
	for i := range r.Runs {
		run := &r.Runs[i]
		if run.RoundsPerSec > 0 {
			slo.MinRoundsPerSec[run.Name] = run.RoundsPerSec / headroom
		}
		phases := map[string]float64{}
		names := make([]string, 0, len(run.Phases))
		for name := range run.Phases {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if p99 := run.Phases[name].P99Ms; p99 >= 1 {
				phases[name] = p99 * headroom
			}
		}
		if len(phases) > 0 {
			slo.MaxPhaseP99Ms[run.Name] = phases
		}
	}
	return slo, nil
}
