package round

import (
	"math/rand"
	"testing"

	"lppa/internal/core"
	"lppa/internal/obs"
)

// TestEpochStateReuseBitIdentical pins WithEpochState's contract at the
// round layer: a sequence of Runs sharing one state — different
// populations, different option shapes per call — produces exactly what
// the same calls produce with fresh auctioneers. Reuse (core Reset) may
// only save construction work.
func TestEpochStateReuseBitIdentical(t *testing.T) {
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	st := NewEpochState()
	calls := []struct {
		n    int
		seed int64
		opts []Option
	}{
		{24, 3, nil},
		{36, 4, []Option{WithWorkers(4)}}, // grow
		{24, 5, []Option{WithWorkers(2), WithObserver(obs.NewRegistry())}}, // shrink, observed
		{30, 6, []Option{WithInteractiveCharging()}},
		{30, 7, []Option{WithWorkers(1)}}, // observer must not leak from prior epochs
		{30, 8, []Option{WithSecondPrice()}},
	}
	for i, c := range calls {
		p, ring, pts, bids := parallelFixture(t, c.n, 2, c.seed)
		in := func() Input {
			return Input{Points: pts, Bids: bids, Policy: pol, Rng: rand.New(rand.NewSource(c.seed * 9))}
		}
		reused, err := Run(p, ring, in(), append(append([]Option{}, c.opts...), WithEpochState(st))...)
		if err != nil {
			t.Fatalf("call %d reused: %v", i, err)
		}
		fresh, err := Run(p, ring, in(), c.opts...)
		if err != nil {
			t.Fatalf("call %d fresh: %v", i, err)
		}
		sameResult(t, "epoch-state call "+string(rune('0'+i)), reused, fresh)
	}
	if st.auc == nil {
		t.Fatal("state never captured the auctioneer")
	}
}

// TestWithEpochStateNil rejects a nil state instead of silently running
// one-shot.
func TestWithEpochStateNil(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 8, 2, 1)
	_, err := Run(p, ring, Input{Points: pts, Bids: bids, Rng: rand.New(rand.NewSource(1))}, WithEpochState(nil))
	if err == nil {
		t.Fatal("nil epoch state accepted")
	}
}
