package main

import (
	"reflect"
	"testing"
	"time"
)

func tinyRun(t *testing.T, name string, seed int64, trace bool) *result {
	t.Helper()
	rc := runConfig{seed: seed, seconds: time.Second, trace: trace, tiny: true}
	r, _, err := measure(name, workloads[name], rc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !r.Correct || r.Failed != 0 {
		t.Fatalf("%s seed %d: correct %v, failed %d of %d: %v", name, seed, r.Correct, r.Failed, r.Attempted, r.Problems)
	}
	return r
}

// Every workload runs at test size through both passes, passes its
// correctness gates, and reports every metric BENCHMARK.json names.
func TestSmokeAllWorkloads(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			r := tinyRun(t, name, 1, true)
			for _, d := range endToEnd {
				if v, ok := r.EndToEnd[d.name]; !ok || v.Value <= 0 || v.Unit != d.unit {
					t.Errorf("end-to-end %s = %+v", d.name, v)
				}
			}
			for _, d := range perLayer {
				if v, ok := r.PerLayer[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("per-layer %s = %+v", d.name, v)
				}
			}
		})
	}
}

// The layer spans account for a traced round: what the round's root span
// covers beyond its children is under a tenth of it.
func TestTracedRoundIsAttributed(t *testing.T) {
	rc := runConfig{seed: 3, seconds: time.Second, trace: true, tiny: true}
	m, err := runRounds(rc, ruralRounds(true))
	if err != nil {
		t.Fatal(err)
	}
	self := selfTimes(m.spans)
	rounds := 0
	for _, s := range m.spans {
		if s.Name != "round" {
			continue
		}
		rounds++
		if rest := self[s.Ctx.Trace]["round"]; rest > s.Duration/10 {
			t.Errorf("round %v: %v of %v not inside any layer span", s.Ctx.Trace, rest, s.Duration)
		}
	}
	if rounds == 0 {
		t.Fatal("no traced round")
	}
}

func TestSameSeedSameInputsAndDigests(t *testing.T) {
	shape := openService(true)
	a, err := serviceInputs(7, shape, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serviceInputs(7, shape, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 7 built two different schedules")
	}
	c, err := serviceInputs(8, shape, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.events, c.events) {
		t.Error("seeds 7 and 8 built the same schedule")
	}
	// A shorter run replays a prefix of the same schedule.
	short, err := serviceInputs(7, shape, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(short.events) == 0 || !reflect.DeepEqual(short.events, a.events[:len(short.events)]) {
		t.Error("the schedule depends on the run length")
	}

	for _, name := range []string{"round-urban", "net-loopback"} {
		first := tinyRun(t, name, 5, false).Digest
		if again := tinyRun(t, name, 5, false).Digest; again != first {
			t.Errorf("%s seed 5: digests %s and %s", name, first, again)
		}
		if other := tinyRun(t, name, 6, false).Digest; other == first {
			t.Errorf("%s: seeds 5 and 6 share digest %s", name, first)
		}
	}
}
