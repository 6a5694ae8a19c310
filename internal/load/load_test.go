package load

import (
	"encoding/json"
	"testing"

	"lppa/internal/faults"
	"lppa/internal/sim"
)

// smallConfig keeps harness tests fast: a population small enough that a
// round runs in milliseconds but large enough that awards, conflicts, and
// chaos all actually occur.
func smallConfig(variant string) Config {
	return Config{
		Bidders: 60, Rounds: 3, Seed: 42,
		Variant: variant, Density: "mixed", Workers: 2,
	}
}

// TestRunDeterminism is the harness's determinism regression: two
// same-seed runs must produce byte-identical award transcripts (equal
// digests) and identical reports modulo the timing fields.
func TestRunDeterminism(t *testing.T) {
	for _, variant := range []string{VariantInterned, VariantService} {
		t.Run(variant, func(t *testing.T) {
			cfg := smallConfig(variant)
			cfg.RateLimit = 40 // exercises shed accounting on the service path
			cfg.Chaos = faults.Config{DropFrame: 0.05, DupFrame: 0.05}
			a, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a.AwardDigest == "" || a.AwardDigest != b.AwardDigest {
				t.Fatalf("award digests differ across same-seed runs:\n  %s\n  %s", a.AwardDigest, b.AwardDigest)
			}
			aj, _ := json.Marshal(a.StripTiming())
			bj, _ := json.Marshal(b.StripTiming())
			if string(aj) != string(bj) {
				t.Fatalf("stripped reports differ:\n  %s\n  %s", aj, bj)
			}
			// A different seed must actually change the transcript, or the
			// digest is vacuous.
			cfg.Seed = 43
			c, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.AwardDigest == a.AwardDigest {
				t.Fatal("different seed produced an identical award digest")
			}
		})
	}
}

// TestRunVariantEquivalence pins the repo-wide bit-identical contract at
// the harness level: the worker count is an execution strategy, not a
// different auction, so same-seed one-shot runs must agree on the
// transcript at every pipeline width.
func TestRunVariantEquivalence(t *testing.T) {
	var want *RunReport
	for _, workers := range []int{1, 2, 4} {
		cfg := smallConfig(VariantInterned)
		cfg.Workers = workers
		rep, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Winners == 0 || rep.Revenue == 0 {
			t.Fatalf("workers=%d: degenerate run, no awards: %+v", workers, rep)
		}
		if want == nil {
			want = rep
			continue
		}
		if rep.AwardDigest != want.AwardDigest {
			t.Errorf("workers=%d award digest %s != workers=%d digest %s", workers, rep.AwardDigest, want.Workers, want.AwardDigest)
		}
		if rep.Winners != want.Winners || rep.Revenue != want.Revenue {
			t.Errorf("workers=%d winners/revenue %d/%d != workers=%d %d/%d",
				workers, rep.Winners, rep.Revenue, want.Workers, want.Winners, want.Revenue)
		}
	}
}

// TestRunRoundsAccounting checks the closed-loop bookkeeping under chaos:
// submissions partition into admitted and dropped, drops mark rounds
// degraded, and phases carry the round span names.
func TestRunRoundsAccounting(t *testing.T) {
	cfg := smallConfig(VariantInterned)
	cfg.Chaos = faults.Config{DropFrame: 0.2, DupFrame: 0.1}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Dropped == 0 || rep.Duplicated == 0 {
		t.Fatalf("chaos at 20%%/10%% over %d submissions produced drops=%d dups=%d",
			rep.Submitted, rep.Dropped, rep.Duplicated)
	}
	if got := rep.Admitted + rep.Dropped + rep.Duplicated; got != rep.Submitted {
		t.Errorf("admitted %d + dropped %d + duplicated %d = %d, want submitted %d",
			rep.Admitted, rep.Dropped, rep.Duplicated, got, rep.Submitted)
	}
	if rep.Degraded == 0 {
		t.Error("rounds with dropped bidders not counted degraded")
	}
	for _, phase := range []string{"round", "encode", "allocate", "charge"} {
		ps, ok := rep.Phases[phase]
		if !ok || ps.Count == 0 {
			t.Errorf("phase %q missing from report: %+v", phase, rep.Phases)
		}
	}
	if ps := rep.Phases["round"]; ps.Count != cfg.Rounds {
		t.Errorf("round span count %d, want %d", ps.Count, cfg.Rounds)
	}
}

// TestRunServiceAccounting checks the open-loop bookkeeping: epochs were
// sealed, the rate limiter shed load, churn registered, and the digest
// covers every sealed epoch.
func TestRunServiceAccounting(t *testing.T) {
	cfg := smallConfig(VariantService)
	cfg.Rounds = 4
	cfg.RateLimit = 10
	cfg.Arrival = sim.ArrivalConfig{Process: "poisson", ResubmitFrac: 0.5, DepartFrac: 0.2}
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs == 0 {
		t.Fatal("service run sealed no epochs")
	}
	if rep.Epochs > cfg.Rounds+1 {
		t.Errorf("sealed %d epochs from a %d-interval horizon", rep.Epochs, cfg.Rounds)
	}
	if rep.Shed == 0 {
		t.Error("rate limit 10/s over a dense schedule shed nothing")
	}
	if rep.Resubmitted == 0 || rep.Departed == 0 {
		t.Errorf("churn missing: resubmitted=%d departed=%d", rep.Resubmitted, rep.Departed)
	}
	if got := rep.Admitted + rep.Shed + rep.Dropped; got != rep.Submitted {
		t.Errorf("admitted %d + shed %d + dropped %d = %d, want submitted %d",
			rep.Admitted, rep.Shed, rep.Dropped, got, rep.Submitted)
	}
	if rep.Winners == 0 || rep.AwardDigest == "" {
		t.Errorf("degenerate service run: %+v", rep)
	}
}

// TestConfigValidation pins that a broken config errors before any work.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{},            // no bidders
		{Bidders: 10}, // no rounds
		{Bidders: 10, Rounds: 1, Variant: "warp"},                  // unknown variant
		{Bidders: 10, Rounds: 1, Variant: "interned", Workers: -1}, // negative workers
		{Bidders: 10, Rounds: 1, Variant: "interned", Density: "metropolis"},
		{Bidders: 10, Rounds: 1, Variant: "service", RateLimit: -1},
		{Bidders: 10, Rounds: 1, Variant: "interned", Chaos: faults.Config{DropFrame: 1.5}},
	}
	for _, cfg := range bad {
		if _, err := Run(cfg); err == nil {
			t.Errorf("config %+v accepted, want error", cfg)
		}
	}
}

// TestConfigName pins the run-name scheme SLO blocks key on.
func TestConfigName(t *testing.T) {
	cases := map[string]Config{
		"interned/mixed/n100": {Variant: VariantInterned, Bidders: 100},
		"interned/urban/n50":  {Variant: VariantInterned, Density: "urban", Bidders: 50},
		"service/rural/n10":   {Variant: VariantService, Density: "rural", Bidders: 10},
	}
	for want, cfg := range cases {
		if got := cfg.Name(); got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}
