package load

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func validReport() *Report {
	return &Report{
		Schema: Schema,
		Seed:   42,
		Runs: []RunReport{{
			Name: "interned/mixed/n100", Variant: VariantInterned, Density: "mixed",
			Bidders: 100, Rounds: 5, Epochs: 0,
			Submitted: 500, Admitted: 500, Winners: 40, Revenue: 2000,
			AwardDigest: "abc123",
			WallSeconds: 0.5, RoundsPerSec: 10,
			Phases: map[string]PhaseStats{
				"round":    {Count: 5, P50Ms: 10, P95Ms: 20, P99Ms: 25, MaxMs: 30, MeanMs: 12},
				"allocate": {Count: 5, P50Ms: 2, P95Ms: 4, P99Ms: 5, MaxMs: 6, MeanMs: 3},
			},
		}},
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	r := validReport()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Runs[0].Name != r.Runs[0].Name || got.Runs[0].RoundsPerSec != r.Runs[0].RoundsPerSec {
		t.Fatalf("round trip mangled the report: %+v", got.Runs[0])
	}
}

func TestDecodeRejects(t *testing.T) {
	mutate := func(f func(*Report)) []byte {
		r := validReport()
		f(r)
		data, _ := json.Marshal(r)
		return data
	}
	cases := map[string][]byte{
		"empty":           nil,
		"truncated":       []byte(`{"schema": "lppa-load/v1", "runs": [{"na`),
		"not-json":        []byte("rounds/sec: lots"),
		"wrong-schema":    mutate(func(r *Report) { r.Schema = "lppa-load/v0" }),
		"no-runs":         mutate(func(r *Report) { r.Runs = nil }),
		"unnamed-run":     mutate(func(r *Report) { r.Runs[0].Name = "" }),
		"duplicate-run":   mutate(func(r *Report) { r.Runs = append(r.Runs, r.Runs[0]) }),
		"zero-bidders":    mutate(func(r *Report) { r.Runs[0].Bidders = 0 }),
		"negative-count":  mutate(func(r *Report) { r.Runs[0].Shed = -1 }),
		"negative-timing": mutate(func(r *Report) { r.Runs[0].WallSeconds = -0.1 }),
		"non-monotone-percentiles": mutate(func(r *Report) {
			ps := r.Runs[0].Phases["round"]
			ps.P50Ms, ps.P99Ms = 30, 10
			r.Runs[0].Phases["round"] = ps
		}),
		"bad-slo": mutate(func(r *Report) {
			r.SLO = &SLO{MinRoundsPerSec: map[string]float64{"x": -5}}
		}),
	}
	for name, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestStripTiming(t *testing.T) {
	r := validReport()
	r.SLO = &SLO{MinRoundsPerSec: map[string]float64{"interned/mixed/n100": 5}}
	s := r.StripTiming()
	run := s.Runs[0]
	if run.WallSeconds != 0 || run.RoundsPerSec != 0 || run.AllocsPerRound != 0 {
		t.Errorf("timing fields survived strip: %+v", run)
	}
	if run.Phases["round"].Count != 5 || run.Phases["round"].P99Ms != 0 {
		t.Errorf("phase strip kept durations or lost counts: %+v", run.Phases["round"])
	}
	if s.SLO != nil {
		t.Error("SLO block survived strip")
	}
	if run.AwardDigest != "abc123" || run.Submitted != 500 {
		t.Errorf("accounting fields stripped: %+v", run)
	}
	// The original is untouched (StripTiming copies).
	if r.Runs[0].RoundsPerSec != 10 || r.SLO == nil {
		t.Error("StripTiming mutated its receiver")
	}
}

func TestDeriveSLO(t *testing.T) {
	r := validReport()
	slo, err := DeriveSLO(r, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := slo.MinRoundsPerSec["interned/mixed/n100"]; got != 2.5 {
		t.Errorf("min rounds/sec = %v, want 10/4", got)
	}
	if got := slo.MaxPhaseP99Ms["interned/mixed/n100"]["round"]; got != 100 {
		t.Errorf("max round p99 = %v, want 25*4", got)
	}
	if _, err := DeriveSLO(r, 1); err == nil {
		t.Error("headroom 1 accepted")
	}
	// A report carrying its own derived SLO must still validate.
	r.SLO = slo
	if err := r.Validate(); err != nil {
		t.Errorf("derived SLO fails validation: %v", err)
	}
}

func TestCompareGate(t *testing.T) {
	baseline := validReport()
	slo, err := DeriveSLO(baseline, 2)
	if err != nil {
		t.Fatal(err)
	}
	baseline.SLO = slo

	// Candidate holding every SLO passes clean.
	if v, err := Compare(baseline, validReport()); err != nil || len(v) != 0 {
		t.Fatalf("clean candidate: violations=%v err=%v", v, err)
	}

	// Throughput collapse and a p99 blowout each produce a violation.
	slow := validReport()
	slow.Runs[0].RoundsPerSec = 1
	ps := slow.Runs[0].Phases["round"]
	ps.P95Ms, ps.P99Ms, ps.MaxMs = 400, 500, 600
	slow.Runs[0].Phases["round"] = ps
	v, err := Compare(baseline, slow)
	if err != nil {
		t.Fatal(err)
	}
	if len(v) != 2 {
		t.Fatalf("violations = %v, want throughput + p99", v)
	}
	if !strings.Contains(v[0], "below SLO floor") || !strings.Contains(v[1], "above SLO ceiling") {
		t.Errorf("violation wording: %v", v)
	}

	// A run the SLO names but the candidate lost is a violation, not a pass.
	empty := validReport()
	empty.Runs[0].Name = "renamed/mixed/n100"
	if v, err := Compare(baseline, empty); err != nil || len(v) == 0 {
		t.Fatalf("missing run: violations=%v err=%v", v, err)
	}

	// Fail closed: a baseline without an SLO block errors.
	if _, err := Compare(validReport(), validReport()); err == nil {
		t.Error("SLO-less baseline compared without error")
	}
	if _, err := Compare(nil, validReport()); err == nil {
		t.Error("nil baseline compared without error")
	}
}

func TestCompareFilesFailClosed(t *testing.T) {
	dir := t.TempDir()
	candidate := filepath.Join(dir, "candidate.json")
	var buf bytes.Buffer
	if err := validReport().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(candidate, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	// Missing baseline file: error, never a pass.
	if _, err := CompareFiles(filepath.Join(dir, "missing.json"), candidate); err == nil {
		t.Error("missing baseline compared without error")
	}
	// Corrupt baseline: same.
	corrupt := filepath.Join(dir, "corrupt.json")
	if err := os.WriteFile(corrupt, []byte(`{"schema":`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompareFiles(corrupt, candidate); err == nil {
		t.Error("corrupt baseline compared without error")
	}
}

// FuzzLoadReportDecode pins the loader's contract: arbitrary input may
// error but must never panic, and anything that decodes must re-encode
// and decode again (validity is stable under round-trip).
func FuzzLoadReportDecode(f *testing.F) {
	var buf bytes.Buffer
	if err := validReport().WriteJSON(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema": "lppa-load/v1", "runs": []}`))
	f.Add([]byte(`{"schema": "lppa-load/v1", "seed": 1, "runs": [{"name": "x", "bidders": 1}]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`{"schema": "lppa-load/v1", "runs": [{"name": "x", "bidders": 1, "phases": {"round": {"p50_ms": 9, "p99_ms": 1}}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := Decode(data)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("decoded report failed to encode: %v", err)
		}
		if _, err := Decode(buf.Bytes()); err != nil {
			t.Fatalf("round-tripped report failed to decode: %v", err)
		}
	})
}
