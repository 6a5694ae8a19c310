package main

import (
	"encoding/json"
	"testing"
)

// BENCHMARK.json and the code name the same workloads and metrics, and
// every end-to-end metric carries a bound, set-up time the largest.
func TestSpecMatchesCode(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the code %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not in the code", w.Name)
		}
	}
	if len(sp.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code %d", len(sp.EndToEnd), len(endToEnd))
	}
	setup := 0.0
	for i, m := range sp.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound > setup {
			t.Errorf("%s bound %v exceeds setup_s's %v", m.Name, m.Bound, setup)
		}
	}
	if len(sp.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code %d", len(sp.PerLayer), len(perLayer))
	}
	for i, m := range sp.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %s/%s/%s, code %s/%s/%s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

func TestDigestsFileParses(t *testing.T) {
	var all map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &all); err != nil {
		t.Fatal(err)
	}
	for w, seeds := range all {
		if workloads[w] == nil {
			t.Errorf("digests.json names unknown workload %q", w)
		}
		for s, d := range seeds {
			if len(d) != 64 {
				t.Errorf("%s seed %s: digest %q is not a sha256", w, s, d)
			}
		}
	}
}
