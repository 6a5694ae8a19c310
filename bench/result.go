package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"lppa/internal/obs"
)

// measurement is what one workload run reports to the common reporting
// code.
type measurement struct {
	shape     string    // workload sizes and run lengths, for the fingerprint
	setup     []float64 // seconds per set-up repetition
	latency   []float64 // ms per timed (untraced) op
	late      []float64 // ms each timed op or event started after it was due
	phase     phaseStats
	attempted int
	refused   int      // operations the system turned away (admission)
	problems  []string // failed correctness checks; any one fails the run
	digest    string   // transcript digest of the set-up and warm-up ops
	detail    map[string]metricValue

	// Traced pass (--trace 1).
	spans    []*obs.Span
	traced   []tracedOp
	tracedMs []float64 // traced op times ...
	baseline []float64 // ... and the untraced times they compare to
}

func (m *measurement) fail(format string, args ...any) {
	if len(m.problems) < 20 {
		m.problems = append(m.problems, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) note(name, unit string, v float64, n int) {
	if m.detail == nil {
		m.detail = make(map[string]metricValue)
	}
	m.detail[name] = metricValue{Value: v, Unit: unit, Samples: n}
}

// metricValue is one reported number with its unit and sample count.
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// fingerprint is the environment a result was measured in; compare
// refuses to pair results whose fingerprints differ beyond the commit.
type fingerprint struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Seconds    int    `json:"seconds"`
	Shape      string `json:"shape"`
}

func (f fingerprint) sameEnvironment(o fingerprint) bool {
	f.Commit, o.Commit = "", ""
	return f == o
}

// result is one run's record, written to <out>/<workload>-seed<N>-trace<T>.json.
type result struct {
	Fingerprint fingerprint            `json:"fingerprint"`
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Trace       bool                   `json:"trace"`
	Started     time.Time              `json:"started"`
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Digest      string                 `json:"digest"`
	Problems    []string               `json:"problems,omitempty"`
	Warnings    []string               `json:"warnings,omitempty"`
	EndToEnd    map[string]metricValue `json:"end_to_end"`
	PerLayer    map[string]metricValue `json:"per_layer,omitempty"`
	Detail      map[string]metricValue `json:"detail,omitempty"`
}

func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// report turns a measurement into the run's result.
func report(name string, rc runConfig, started time.Time, m *measurement) *result {
	r := &result{
		Fingerprint: fingerprint{
			Commit: commit(), GoVersion: runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Seconds: int(rc.seconds / time.Second), Shape: m.shape,
		},
		Workload: name, Seed: rc.seed, Trace: rc.trace, Started: started,
		Attempted: m.attempted, Failed: m.refused, Digest: m.digest,
		Detail: m.detail,
	}
	if want, ok := expectedDigest(name, rc); ok && want != m.digest {
		m.fail("digest %s, digests.json pins seed %d to %s", m.digest, rc.seed, want)
	}
	if len(m.latency) == 0 {
		m.fail("no op completed in the timed phase")
	}
	r.EndToEnd = endToEndMetrics(m)
	if _, ok := percentile(m.latency, 75); !ok && len(m.latency) > 0 {
		r.Warnings = append(r.Warnings, fmt.Sprintf("latency_ms.p75 has fewer than %d of its %d samples beyond it",
			minBeyond, len(m.latency)))
	}
	if rc.trace {
		if len(m.traced) == 0 {
			m.fail("the traced pass replayed no op")
		}
		r.PerLayer = layerMetrics(m)
	}
	for _, set := range []map[string]metricValue{r.EndToEnd, r.PerLayer} {
		for k, v := range set {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				m.fail("metric %s has no value", k)
				v.Value = 0
				set[k] = v
			}
		}
	}
	r.Problems = m.problems
	r.Correct = len(m.problems) == 0
	if !r.Correct {
		r.Failed = r.Attempted
	}
	return r
}

func endToEndMetrics(m *measurement) map[string]metricValue {
	n := len(m.latency)
	return map[string]metricValue{
		"setup_s":           {p50(m.setup), "s", len(m.setup)},
		"latency_ms.p50":    {p50(m.latency), "ms", n},
		"latency_ms.p75":    {pct(m.latency, 75), "ms", n},
		"cpu_ms_per_op":     {m.phase.cpuMs, "ms", m.phase.ops},
		"heap_live_peak_mb": {m.phase.heapPeakMB, "MB", m.phase.ops},
	}
}

// layerMetrics reduces the traced pass: each core layer's self time per
// decomposed round (median over rounds), the round's counts, the wire
// codec per sampled bidder, and the untraced phase's runtime costs.
func layerMetrics(m *measurement) map[string]metricValue {
	out := make(map[string]metricValue)
	self := selfTimes(m.spans)
	byLayer := make(map[string][]float64)
	var encode, decode []float64
	for _, s := range m.spans {
		switch s.Name {
		case "round":
			for _, l := range coreLayers {
				byLayer[l.metric] = append(byLayer[l.metric], ms(self[s.Ctx.Trace][l.span]))
			}
		case "transport.frame_encode":
			encode = append(encode, ms(s.Duration)*1e3)
		case "transport.frame_decode":
			decode = append(decode, ms(s.Duration)*1e3)
		}
	}
	layerSum := 0.0
	for _, l := range coreLayers {
		v := p50(byLayer[l.metric])
		layerSum += v
		out[l.metric] = metricValue{v, "ms", len(byLayer[l.metric])}
	}

	var edges, awards []float64
	var bytes, bidders, voided, awarded, frameBytes, frames float64
	for _, t := range m.traced {
		edges = append(edges, float64(t.edges))
		awards = append(awards, float64(len(t.outcome.assignments)))
		bytes += float64(t.bytes)
		bidders += float64(t.bidders)
		voided += float64(t.outcome.voided)
		awarded += float64(len(t.outcome.assignments))
		for _, f := range t.frames {
			frameBytes += float64(f)
			frames++
		}
	}
	n := len(m.traced)
	out["core.submission_kb"] = metricValue{ratio(bytes, bidders) / 1024, "KB", int(bidders)}
	out["conflict.edges"] = metricValue{p50(edges), "count", n}
	out["auction.awards"] = metricValue{p50(awards), "count", n}
	out["auction.voided_frac"] = metricValue{ratio(voided, awarded), "ratio", int(awarded)}
	out["transport.frame_bytes"] = metricValue{ratio(frameBytes, frames), "bytes", int(frames)}
	out["transport.frame_encode_us"] = metricValue{p50(encode), "us", len(encode)}
	out["transport.frame_decode_us"] = metricValue{p50(decode), "us", len(decode)}

	out["round.self_ms"] = metricValue{p50(m.latency) - layerSum, "ms", len(m.latency)}
	out["trace.overhead_frac"] = metricValue{p50(m.tracedMs)/p50(m.baseline) - 1, "ratio", len(m.tracedMs)}
	out["harness.late_ms.p99"] = metricValue{pct(m.late, 99), "ms", len(m.late)}
	ph := m.phase
	out["alloc_mb_per_op"] = metricValue{ph.allocMB, "MB", ph.ops}
	out["gc.cycles_per_op"] = metricValue{ph.gcCycles, "count", ph.ops}
	out["gc.pause_ms_per_op"] = metricValue{ph.gcPauseMs, "ms", ph.ops}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// write stores the result and, for a traced run, the spans as a Chrome
// trace (open it in ui.perfetto.dev).
func (r *result) write(dir string, spans []*obs.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, b2i(r.Trace))
	if err := os.WriteFile(filepath.Join(dir, name), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if !r.Trace {
		return nil
	}
	f, err := os.Create(filepath.Join(dir, r.Workload+".trace.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// print writes the human-readable report, then — as the last line — the
// JSON summary: the end-to-end metrics untraced, the per-layer ones traced.
func (r *result) print(w io.Writer) error {
	f := r.Fingerprint
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  trace %d  commit %s  %s  GOMAXPROCS %d  nproc %d\n",
		r.Workload, r.Seed, f.Seconds, b2i(r.Trace), f.Commit, f.GoVersion, f.GOMAXPROCS, f.NumCPU)
	fmt.Fprintf(w, "shape    %s\n", f.Shape)
	section := func(title string, defs []metricDef, vals map[string]metricValue) {
		for _, d := range defs {
			v := vals[d.name]
			fmt.Fprintf(w, "%-9s%-28s %14.4f %-6s (n=%d)\n", title, d.name, v.Value, v.Unit, v.Samples)
		}
	}
	section("e2e", endToEnd, r.EndToEnd)
	if r.Trace {
		section("layer", perLayer, r.PerLayer)
	}
	names := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := r.Detail[k]
		fmt.Fprintf(w, "%-9s%-28s %14.4f %-6s (n=%d)\n", "detail", k, v.Value, v.Unit, v.Samples)
	}
	fmt.Fprintf(w, "digest   %s\n", r.Digest)
	for _, s := range r.Warnings {
		fmt.Fprintf(w, "warning  %s\n", s)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "FAILED   %s\n", p)
	}
	fmt.Fprintf(w, "correct  %v  attempted %d  failed %d\n", r.Correct, r.Attempted, r.Failed)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	src := r.EndToEnd
	if r.Trace {
		src = r.PerLayer
	}
	for k, v := range src {
		summary.Metrics[k] = value{v.Value, v.Unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
