package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/ttp"
)

// TestAuctionToleratesMalformedVerdicts feeds Auction a charger whose
// reply does not match its batch, as a faulty TTP across the network
// could. The round must not panic: a verdict past the batch is ignored, an
// award left without one counts as a violation and is not charged, and
// revenue stays the sum of the charged awards.
func TestAuctionToleratesMalformedVerdicts(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 24, 2, 7)
	trusted, err := ttp.FromRing(p, ring, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Nil samplers: no disguise, so the honest batch has no voids to blur
	// the count below.
	locs, subs, _, errs := encode(p, ring, pts, bids, make([]*core.DisguiseSampler, len(pts)),
		rand.New(rand.NewSource(2)), 1)
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	auctionWith := func(mangle func([]ttp.ChargeResult) []ttp.ChargeResult) *Result {
		t.Helper()
		charge := func(reqs []core.ChargeRequest) ([]ttp.ChargeResult, error) {
			return mangle(trusted.ProcessBatch(reqs)), nil
		}
		res, err := Auction(p, locs, subs, charge, rand.New(rand.NewSource(3)), nil)
		if err != nil {
			t.Fatal(err)
		}
		var charged uint64
		for _, c := range res.Outcome.Charges {
			charged += c
		}
		if len(res.Outcome.Charges) != len(res.Outcome.Assignments) || res.Outcome.Revenue != charged {
			t.Fatalf("%d charges for %d awards, revenue %d, charged %d",
				len(res.Outcome.Charges), len(res.Outcome.Assignments), res.Outcome.Revenue, charged)
		}
		return res
	}

	honest := auctionWith(func(rs []ttp.ChargeResult) []ttp.ChargeResult { return rs })
	last := len(honest.Outcome.Assignments) - 1
	if last < 0 || honest.Violations != 0 || honest.Outcome.Charges[last] == 0 {
		t.Fatalf("fixture needs a charged last award and no violations: %+v", honest.Outcome)
	}

	extra := auctionWith(func(rs []ttp.ChargeResult) []ttp.ChargeResult {
		return append(rs, ttp.ChargeResult{Bidder: 0, Channel: 0, Valid: true, Price: 99})
	})
	sameResult(t, "one-too-many", honest, extra)

	short := auctionWith(func(rs []ttp.ChargeResult) []ttp.ChargeResult { return rs[:len(rs)-1] })
	if short.Violations != 1 || short.Outcome.Charges[last] != 0 ||
		short.Outcome.Revenue != honest.Outcome.Revenue-honest.Outcome.Charges[last] ||
		short.Outcome.SatisfiedBidders != honest.Outcome.SatisfiedBidders-1 {
		t.Errorf("one-too-few: violations %d, last charge %d, revenue %d (honest %d, last %d)",
			short.Violations, short.Outcome.Charges[last], short.Outcome.Revenue,
			honest.Outcome.Revenue, honest.Outcome.Charges[last])
	}
}

// TestAuctionRejectsInteractiveCharging pins that interactive charging,
// which needs the in-process TTP's validity oracle, stays Run's alone.
func TestAuctionRejectsInteractiveCharging(t *testing.T) {
	p, _, _, _ := parallelFixture(t, 2, 2, 1)
	charge := func([]core.ChargeRequest) ([]ttp.ChargeResult, error) { return nil, nil }
	if _, err := Auction(p, nil, nil, charge, rand.New(rand.NewSource(1)), nil, WithInteractiveCharging()); err == nil {
		t.Error("Auction accepted interactive charging")
	}
}

// TestLeakageProfileBidMonotone pins the bid half of the paper's leakage
// profile (DESIGN.md §5g): with disguise off, mapping every bid through a
// strictly increasing function (here b → 2b) must leave everything the
// auctioneer sees unchanged — each column's order, the conflict graph,
// the awards with their runner-ups, the per-bidder digest counts and the
// submission bytes. A difference would be a leak beyond the masked order,
// or a padding bug.
//
// The test has two limits, both by design:
//   - Bids must be distinct within each column. The order among equal bids
//     comes from random blinding slots, and how far each bidder's rng has
//     advanced depends on its bid values, so ties legitimately reorder
//     under the remap.
//   - The point-translation variant of this test (move every bidder by one
//     vector) would fail on DigestCounts: LocationEncoder.Encode does not
//     pad the coordinate range covers, whose size varies with alignment —
//     3 or 4 digests at λ=3 on a 100-cell axis. The committed
//     AUDIT_ROUND.json shows per-bidder counts of 3760–3763 for that
//     reason. The auctioneer learns each axis's cover size on top of the
//     conflict relation.
func TestLeakageProfileBidMonotone(t *testing.T) {
	const n = 40
	p := core.Params{Channels: 6, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	_, ring, _, _ := parallelFixture(t, 1, p.Lambda, 1)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		pts := make([]geo.Point, n)
		for i := range pts {
			pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
		}
		// Distinct positive bids per column, at most BMax/2 so 2b fits.
		bids, doubled := make([][]uint64, n), make([][]uint64, n)
		for i := range bids {
			bids[i], doubled[i] = make([]uint64, p.Channels), make([]uint64, p.Channels)
		}
		for r := 0; r < p.Channels; r++ {
			for i, v := range rng.Perm(int(p.BMax / 2))[:n] {
				bids[i][r], doubled[i][r] = uint64(v+1), 2*uint64(v+1)
			}
		}
		run := func(b [][]uint64) *Result {
			t.Helper()
			res, err := Run(p, ring, Input{Points: pts, Bids: b, Policy: core.DisguisePolicy{P0: 1},
				Rng: rand.New(rand.NewSource(seed * 31))}, WithWorkers(2))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(bids), run(doubled)
		if !reflect.DeepEqual(a.Auctioneer.Rankings(), b.Auctioneer.Rankings()) {
			t.Errorf("seed %d: column rankings differ", seed)
		}
		if !reflect.DeepEqual(a.Outcome.Assignments, b.Outcome.Assignments) {
			t.Errorf("seed %d: assignments differ", seed)
		}
		if !reflect.DeepEqual(a.Auctioneer.DigestCounts(), b.Auctioneer.DigestCounts()) {
			t.Errorf("seed %d: per-bidder digest counts differ", seed)
		}
		if a.SubmissionBytes != b.SubmissionBytes {
			t.Errorf("seed %d: submission bytes %d vs %d", seed, a.SubmissionBytes, b.SubmissionBytes)
		}
		if !a.Auctioneer.ConflictGraph().Equal(b.Auctioneer.ConflictGraph()) {
			t.Errorf("seed %d: conflict graphs differ", seed)
		}
		awardsA, err := a.Auctioneer.AllocateAwards(rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		awardsB, err := b.Auctioneer.AllocateAwards(rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(awardsA, awardsB) {
			t.Errorf("seed %d: awards with runner-ups differ", seed)
		}
	}
}
