package main

import (
	"io"
	"testing"
)

func rep(v float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = v
	}
	return xs
}

// around returns n values spread ±spread/2 around med.
func around(med, spread float64, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = med - spread/2 + spread*float64(i)/float64(n-1)
	}
	return xs
}

func TestVerdicts(t *testing.T) {
	base := around(100, 2, 10)
	cases := []struct {
		name       string
		base, cand []float64
		lower      bool
		bound      float64
		want       string
	}{
		{"clear gain", base, around(90, 2, 10), true, 0.05, better},
		{"clear gain, higher is better", around(90, 2, 10), base, false, 0.05, better},
		{"identical runs tie every pair", base, base, true, 0.05, unchanged},
		{"nine of ten pairs suffice", base, append(around(90, 2, 9), 101.5), true, 0.05, better},
		{"eight of ten pairs do not", base, append(around(90, 2, 8), 101.5, 101.5), true, 0.05, unchanged},
		// Every pair wins, but the medians differ by less than the base's
		// own quartile spread, and that spread exceeds the bound.
		{"gain inside the base spread", around(100, 40, 10), around(99, 40, 10), true, 0.05, unresolved},
		{"small loss inside the bound", base, around(103, 2, 10), true, 0.05, unchanged},
		{"loss beyond the bound", base, around(110, 2, 10), true, 0.05, worse},
		{"loss beyond the bound, higher is better", base, around(90, 2, 10), false, 0.05, worse},
		{"noisy and level", around(100, 40, 10), around(100, 40, 10), true, 0.05, unresolved},
		{"noisy but wide bound", around(100, 40, 10), around(100, 40, 10), true, 0.25, unchanged},
		// The spread exceeds the bound and the gap is inside it, yet every
		// candidate run beats every base run: not unresolved.
		{"every run better", append(rep(100, 5), rep(200, 5)...), rep(99, 10), true, 0.05, unchanged},
	}
	for _, c := range cases {
		if got := verdict(c.base, c.cand, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// compareSets refuses pairs it cannot compare and flags regressions.
func TestCompareSetsRefusals(t *testing.T) {
	sp := &spec{
		Workloads: []specWorkload{{Name: "round-urban"}},
		EndToEnd:  []specMetric{{Name: "latency_ms.p50", Unit: "ms", Better: "lower", Bound: 0.1}},
	}
	set := func(pairs int, latency float64, edit func(*result)) map[string]map[int64]*result {
		runs := make(map[int64]*result)
		for s := int64(1); s <= int64(pairs); s++ {
			r := &result{Workload: "round-urban", Seed: s, Correct: true, Digest: "d",
				Fingerprint: fingerprint{Commit: "c", GoVersion: "go", Seconds: 20},
				EndToEnd:    map[string]metricValue{"latency_ms.p50": {Value: latency + float64(s)/100}}}
			if edit != nil {
				edit(r)
			}
			runs[s] = r
		}
		return map[string]map[int64]*result{"round-urban": runs}
	}
	cases := []struct {
		name       string
		base, cand map[string]map[int64]*result
		agree      bool
		want       int
	}{
		{"level", set(10, 100, nil), set(10, 100, nil), false, 0},
		{"regression", set(10, 100, nil), set(10, 120, nil), false, 1},
		{"agree", set(10, 100, nil), set(10, 101, nil), true, 0},
		{"disagree", set(10, 100, nil), set(10, 120, nil), true, 1},
		{"too few pairs", set(9, 100, nil), set(9, 100, nil), false, 2},
		{"fingerprint", set(10, 100, nil), set(10, 100, func(r *result) { r.Fingerprint.Seconds = 10 }), false, 2},
		{"other commit is fine", set(10, 100, nil), set(10, 100, func(r *result) { r.Fingerprint.Commit = "d" }), false, 0},
		{"agree needs one commit", set(10, 100, nil), set(10, 100, func(r *result) { r.Fingerprint.Commit = "d" }), true, 2},
		{"digest", set(10, 100, nil), set(10, 100, func(r *result) { r.Digest = "e" }), false, 2},
		{"failed run", set(10, 100, nil), set(10, 100, func(r *result) { r.Correct = false }), false, 2},
		{"more refusals", set(10, 100, nil), set(10, 100, func(r *result) { r.Failed = 1 }), false, 1},
		{"nothing to compare", nil, nil, false, 2},
	}
	for _, c := range cases {
		if got := compareSets(io.Discard, io.Discard, sp, c.base, c.cand, c.agree); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}

func TestAgreement(t *testing.T) {
	base := around(100, 4, 10)
	if got := agreement(base, around(103, 4, 10), 0.05); got != agrees {
		t.Errorf("3%% apart with a 5%% bound: %s", got)
	}
	if got := agreement(base, around(94, 4, 10), 0.05); got != disagrees {
		t.Errorf("6%% apart with a 5%% bound: %s", got)
	}
}
