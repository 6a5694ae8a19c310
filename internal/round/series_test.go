package round

import (
	"errors"
	"math/rand"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/ttp"
)

func seriesFixture(t *testing.T) (core.Params, *mask.KeyRing, []geo.Point, [][]uint64) {
	t.Helper()
	p := core.Params{Channels: 4, Lambda: 2, MaxX: 49, MaxY: 49, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("series"), p.Channels, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	const n = 8
	points := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(50)), Y: uint64(rng.Intn(50))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(3) > 0 {
				bids[i][r] = uint64(rng.Intn(100)) + 1
			}
		}
	}
	return p, ring, points, bids
}

func TestSeriesBatchedSettlement(t *testing.T) {
	p, ring, points, bids := seriesFixture(t)
	s, err := NewSeries(p, ring, 1<<20, 3, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	policy := core.DisguisePolicy{P0: 0.8, Decay: 0.9}

	// Rounds 0 and 1 queue; round 2 triggers the window and settles all.
	for i := 0; i < 2; i++ {
		settled, err := s.Run(ring, points, bids, policy, rng)
		if err != nil {
			t.Fatal(err)
		}
		if settled != nil {
			t.Fatalf("round %d settled early", i)
		}
	}
	settled, err := s.Run(ring, points, bids, policy, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(settled) != 3 {
		t.Fatalf("settled %d rounds, want 3", len(settled))
	}
	ids := map[int]bool{}
	for _, sr := range settled {
		ids[sr.RoundID] = true
		if sr.Outcome.Revenue == 0 && sr.Voided == 0 {
			t.Errorf("round %d: nothing adjudicated", sr.RoundID)
		}
	}
	if !ids[0] || !ids[1] || !ids[2] {
		t.Errorf("settled ids = %v", ids)
	}
	if s.Stats().Windows != 1 {
		t.Errorf("TTP windows = %d, want 1", s.Stats().Windows)
	}
}

func TestSeriesFlushSettlesRemainder(t *testing.T) {
	p, ring, points, bids := seriesFixture(t)
	s, err := NewSeries(p, ring, 1<<20, 100, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		if settled, err := s.Run(ring, points, bids, core.DisguisePolicy{P0: 1}, rng); err != nil {
			t.Fatal(err)
		} else if settled != nil {
			t.Fatal("settled before flush")
		}
	}
	settled := s.Flush()
	if len(settled) != 4 {
		t.Fatalf("flush settled %d rounds", len(settled))
	}
	if s.Stats().Windows != 1 || s.Stats().Rounds != 4 {
		t.Errorf("stats = %+v", s.Stats())
	}
	// First-price charges: valid charges equal the original bids.
	for _, sr := range settled {
		for i, a := range sr.Outcome.Assignments {
			if c := sr.Outcome.Charges[i]; c != 0 && c != bids[a.Bidder][a.Channel] {
				t.Errorf("round %d: charge %d != bid %d", sr.RoundID, c, bids[a.Bidder][a.Channel])
			}
		}
	}
}

// TestSeriesSettlementTally pins Series settlement to Run's tally: a TTP
// error verdict is a violation, not a void, and an award the settlement
// left without a verdict is a violation too. Bids are all positive and
// nobody disguises, so no honest verdict is a void.
func TestSeriesSettlementTally(t *testing.T) {
	p, ring, points, bids := seriesFixture(t)
	for i := range bids {
		for r := range bids[i] {
			if bids[i][r] == 0 {
				bids[i][r] = 1
			}
		}
	}
	s, err := NewSeries(p, ring, 1<<20, 1, rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	settle := func(reqs []core.ChargeRequest) []ttp.ChargeResult {
		results := s.trusted.ProcessBatch(reqs)
		results[0].Err = errors.New("forged price")
		return results[:len(results)-1]
	}
	if s.batcher, err = NewBatcher(1<<20, 1, settle); err != nil {
		t.Fatal(err)
	}
	settled, err := s.Run(ring, points, bids, core.DisguisePolicy{P0: 1}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(settled) != 1 {
		t.Fatalf("settled %d rounds, want 1", len(settled))
	}
	sr := settled[0]
	if n := len(sr.Outcome.Assignments); n < 3 {
		t.Fatalf("%d awards, need at least 3 to separate the first, the last and an honest one", n)
	}
	if sr.Violations != 2 || sr.Voided != 0 {
		t.Errorf("violations=%d voided=%d, want 2 and 0", sr.Violations, sr.Voided)
	}
	if want := len(sr.Outcome.Assignments) - 2; sr.Outcome.SatisfiedBidders != want {
		t.Errorf("satisfied %d, want %d", sr.Outcome.SatisfiedBidders, want)
	}
}

func TestSeriesValidation(t *testing.T) {
	p, ring, _, _ := seriesFixture(t)
	if _, err := NewSeries(p, ring, 0, 1, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad batch bounds accepted")
	}
	s, err := NewSeries(p, ring, 10, 10, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ring, nil, nil, core.DisguisePolicy{P0: 1}, rand.New(rand.NewSource(1))); err == nil {
		t.Error("empty round accepted")
	}
}
