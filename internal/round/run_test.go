package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
	"lppa/internal/obs"
)

// sameResult compares everything a Result exposes except the Auctioneer
// pointer (always distinct instances).
func sameResult(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Outcome, b.Outcome) {
		t.Errorf("%s: outcomes differ\n a=%+v\n b=%+v", tag, a.Outcome, b.Outcome)
	}
	if a.Voided != b.Voided || a.Violations != b.Violations || a.SubmissionBytes != b.SubmissionBytes {
		t.Errorf("%s: voided/violations/bytes differ: %d/%d/%d vs %d/%d/%d",
			tag, a.Voided, a.Violations, a.SubmissionBytes, b.Voided, b.Violations, b.SubmissionBytes)
	}
}

// TestRunObserverDoesNotChangeResults pins the observability contract at
// the round level: attaching a registry never changes any byte of the
// result, across seeds, worker counts, and charging modes.
func TestRunObserverDoesNotChangeResults(t *testing.T) {
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	shapes := []struct {
		tag  string
		opts []Option
	}{
		{"serial", nil},
		{"workers1", []Option{WithWorkers(1)}},
		{"workers4", []Option{WithWorkers(4)}},
		{"interactive", []Option{WithInteractiveCharging()}},
		{"secondprice", []Option{WithSecondPrice()}},
	}
	for _, seed := range []int64{4, 21} {
		p, ring, pts, bids := parallelFixture(t, 20, 2, seed)
		for _, sh := range shapes {
			run := func(reg *obs.Registry) *Result {
				opts := append(append([]Option(nil), sh.opts...), WithTelemetry(obs.Telemetry{Metrics: reg}))
				res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: pol,
					Rng: rand.New(rand.NewSource(seed * 9))}, opts...)
				if err != nil {
					t.Fatalf("%s seed=%d: %v", sh.tag, seed, err)
				}
				return res
			}
			plain := run(nil)
			reg := obs.NewRegistry()
			watched := run(reg)
			sameResult(t, sh.tag, plain, watched)
			if reg.Counter("lppa_rounds_total").Value() != 1 {
				t.Errorf("%s seed=%d: rounds_total = %d, want 1", sh.tag, seed, reg.Counter("lppa_rounds_total").Value())
			}
			snap := reg.Snapshot()
			for _, phase := range []string{"encode", "conflict_graph", "rank_memo", "allocate", "charge"} {
				h := snap.Histograms[`lppa_round_phase_seconds{phase="`+phase+`"}`]
				if h.Count != 1 {
					t.Errorf("%s seed=%d: phase %q observed %d times, want 1", sh.tag, seed, phase, h.Count)
				}
			}
			if snap.Counters["lppa_round_submission_bytes_total"] != uint64(plain.SubmissionBytes) {
				t.Errorf("%s seed=%d: submission bytes metric %d, result %d",
					sh.tag, seed, snap.Counters["lppa_round_submission_bytes_total"], plain.SubmissionBytes)
			}
			if snap.Counters["lppa_mask_digests_total"] == 0 {
				t.Errorf("%s seed=%d: no masked digests counted", sh.tag, seed)
			}
		}
	}
}

// TestRunOptionValidation covers the config error paths.
func TestRunOptionValidation(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 4, 2, 1)
	in := Input{Points: pts, Bids: bids, Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(1))}
	if _, err := Run(p, ring, in, WithInteractiveCharging(), WithSecondPrice()); err == nil {
		t.Error("conflicting charging modes accepted")
	}
	if _, err := Run(p, ring, in, WithWorkers(-1)); err == nil {
		t.Error("negative worker count accepted")
	}
	if _, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: in.Policy}); err == nil {
		t.Error("nil rng accepted")
	}
	if _, err := Run(p, ring, in, WithPolicies(make([]core.DisguisePolicy, 2))); err == nil {
		t.Error("short policy slice accepted")
	}
	if _, err := Run(p, ring, Input{Rng: in.Rng}); err == nil {
		t.Error("empty round accepted")
	}
}
