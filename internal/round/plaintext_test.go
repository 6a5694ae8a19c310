package round

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
)

// checkPlaintextTruth pins one private round against the plaintext truth
// it was computed from: the auctioneer's masked conflict graph is the
// plaintext graph over the bidders it allocated (the kept ones, under a
// degraded quorum round), every bidder wins at most one channel, no two
// winners of one channel interfere, and every charge is bounded by the
// winner's true bid — equal to it under first-price charging, where a
// voided award (a zero that won) is charged its true value, zero.
func checkPlaintextTruth(t *testing.T, tag string, lambda uint64, pts []geo.Point, bids [][]uint64, res *Result, secondPrice bool) {
	t.Helper()
	excluded := make(map[int]bool, len(res.Excluded))
	for _, i := range res.Excluded {
		excluded[i] = true
	}
	kept := make([]geo.Point, 0, len(pts))
	for i, pt := range pts {
		if !excluded[i] {
			kept = append(kept, pt)
		}
	}
	if !res.Auctioneer.ConflictGraph().Equal(conflict.BuildPlain(kept, lambda)) {
		t.Errorf("%s: masked conflict graph differs from the plaintext graph", tag)
	}

	out := res.Outcome
	if err := auction.VerifyOneChannelPerBidder(out.Assignments); err != nil {
		t.Errorf("%s: %v", tag, err)
	}
	byChannel := map[int][]int{}
	for x, as := range out.Assignments {
		if excluded[as.Bidder] {
			t.Errorf("%s: excluded bidder %d won channel %d", tag, as.Bidder, as.Channel)
		}
		for _, other := range byChannel[as.Channel] {
			if geo.Conflict(pts[as.Bidder], pts[other], lambda) {
				t.Errorf("%s: interfering bidders %d and %d both won channel %d", tag, other, as.Bidder, as.Channel)
			}
		}
		byChannel[as.Channel] = append(byChannel[as.Channel], as.Bidder)

		truth := bids[as.Bidder][as.Channel]
		switch charge := out.Charges[x]; {
		case secondPrice && charge > truth:
			t.Errorf("%s: bidder %d charged %d on channel %d, above its bid %d", tag, as.Bidder, charge, as.Channel, truth)
		case !secondPrice && charge != truth:
			t.Errorf("%s: bidder %d charged %d on channel %d, true bid %d", tag, as.Bidder, charge, as.Channel, truth)
		}
	}
	if res.Violations != 0 {
		t.Errorf("%s: %d protocol violations from honest bidders", tag, res.Violations)
	}
}

// latticePoints places a side×side lattice at the given spacing, offset
// one unit from the origin, then stacks extra bidders on its first nodes:
// at spacing 2λ−1 every lattice neighbour conflicts, at 2λ and 2λ+1 none
// does, so the masked predicate is exercised exactly at its boundary.
func latticePoints(side, extra int, spacing uint64) []geo.Point {
	pts := make([]geo.Point, 0, side*side+extra)
	for x := 0; x < side; x++ {
		for y := 0; y < side; y++ {
			pts = append(pts, geo.Point{X: 1 + uint64(x)*spacing, Y: 1 + uint64(y)*spacing})
		}
	}
	return append(pts, pts[:extra]...)
}

// plaintextPlacement is one named placement of the shared population.
type plaintextPlacement struct {
	tag string
	pts []geo.Point
}

// plaintextFixture is the population the plaintext-truth tests share:
// 104 bidders with about a quarter of their bids zero, and five placements of
// them — uniform, clustered, and lattices at spacings 2λ−1, 2λ and 2λ+1.
func plaintextFixture(t *testing.T) (core.Params, *mask.KeyRing, [][]uint64, []plaintextPlacement) {
	t.Helper()
	p := core.Params{Channels: 4, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("round-plaintext"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	const n = 104
	rng := rand.New(rand.NewSource(29))
	uniform := make([]geo.Point, n)
	clustered := make([]geo.Point, n)
	for i := range uniform {
		uniform[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
		clustered[i] = geo.Point{X: uint64(40 + rng.Intn(20)), Y: uint64(40 + rng.Intn(20))}
	}
	bids := make([][]uint64, n)
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(4) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
	}
	placements := []plaintextPlacement{{"uniform", uniform}, {"clustered", clustered}}
	for _, spacing := range []uint64{2*p.Lambda - 1, 2 * p.Lambda, 2*p.Lambda + 1} {
		placements = append(placements, plaintextPlacement{fmt.Sprintf("lattice%d", spacing), latticePoints(10, n-100, spacing)})
	}
	return p, ring, bids, placements
}

// runPlaintextGrid runs one placement through every pipeline (serial,
// WithWorkers(4)) and charging rule (first price, second price,
// interactive) and checks each round against the plaintext truth. With
// bad ≥ 0 that bidder is moved out of the domain and the round runs under
// WithQuorum(n−1), which must exclude exactly it. Bidders never disguise
// here, so awards that a zero won are the only voids.
func runPlaintextGrid(t *testing.T, p core.Params, ring *mask.KeyRing, pl plaintextPlacement, bids [][]uint64, bad int) {
	t.Helper()
	pts := pl.pts
	var attendance []Option
	if bad >= 0 {
		pts = append([]geo.Point(nil), pl.pts...)
		pts[bad] = geo.Point{X: p.MaxX + 1, Y: 0}
		attendance = []Option{WithQuorum(len(pts) - 1)}
	}
	pipelines := []struct {
		tag  string
		opts []Option
	}{
		{"serial", nil},
		{"workers4", []Option{WithWorkers(4)}},
	}
	charging := []struct {
		tag         string
		opts        []Option
		secondPrice bool
	}{
		{"firstprice", nil, false},
		{"secondprice", []Option{WithSecondPrice()}, true},
		{"interactive", []Option{WithInteractiveCharging()}, false},
	}
	for _, pipe := range pipelines {
		for _, ch := range charging {
			tag := fmt.Sprintf("%s/quorum=%v/%s/%s", pl.tag, bad >= 0, pipe.tag, ch.tag)
			opts := append(append(append([]Option(nil), pipe.opts...), ch.opts...), attendance...)
			res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1},
				Rng: rand.New(rand.NewSource(41))}, opts...)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			if bad >= 0 && !reflect.DeepEqual(res.Excluded, []int{bad}) {
				t.Fatalf("%s: Excluded = %v, want [%d]", tag, res.Excluded, bad)
			}
			checkPlaintextTruth(t, tag, p.Lambda, pts, bids, res, ch.secondPrice)
		}
	}
}

// TestRunShardGridEquivalence checks the pipeline × charging grid over
// uniform and clustered populations against the plaintext truth. The name
// dates from when rounds could be split into location tiles and this grid
// pinned tiled rounds to untiled ones; with tiling gone, the equivalence
// left to pin is the one to the plaintext computation.
func TestRunShardGridEquivalence(t *testing.T) {
	p, ring, bids, placements := plaintextFixture(t)
	for _, pl := range placements[:2] {
		runPlaintextGrid(t, p, ring, pl, bids, -1)
	}
}

// TestRunShardBoundaryBidders checks the grid over lattices at spacings
// 2λ−1, 2λ and 2λ+1, with co-located stacks on the first nodes, where the
// masked conflict predicate sits exactly at its boundary. The name dates
// from tile boundaries, which no longer exist; the conflict-reach boundary
// is the one left.
func TestRunShardBoundaryBidders(t *testing.T) {
	p, ring, bids, placements := plaintextFixture(t)
	for _, pl := range placements[2:] {
		runPlaintextGrid(t, p, ring, pl, bids, -1)
	}
}

// TestRunShardQuorumCompaction runs every placement as a quorum round with
// one out-of-domain bidder: exactly that bidder is excluded, and the
// compacted population of kept bidders allocates as the plaintext truth
// over them does. The name dates from when the tile planner ran over the
// compacted population.
func TestRunShardQuorumCompaction(t *testing.T) {
	p, ring, bids, placements := plaintextFixture(t)
	for _, pl := range placements {
		runPlaintextGrid(t, p, ring, pl, bids, 7)
	}
}

// FuzzRunMatchesPlaintextTruth replays arbitrary (seed, population,
// pipeline, charging, observation) tuples with every bidder snapped to a
// multiple of 2λ plus up to λ units of jitter either side — co-located
// stacks and pairs at distances on both sides of the conflict reach — and
// checks each round against the plaintext truth. All inputs derive from
// the fuzz arguments, so failures replay deterministically from the
// corpus file.
func FuzzRunMatchesPlaintextTruth(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(1), false, false)
	f.Add(int64(2), uint8(25), uint8(3), true, false)
	f.Add(int64(3), uint8(7), uint8(2), false, true)
	f.Add(int64(0), uint8(0), uint8(0), false, false)

	p := core.Params{Channels: 3, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 40}
	ring, err := mask.DeriveKeyRing([]byte("plaintext-fuzz"), p.Channels, 5, 8)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw, workersRaw uint8, secondPrice, observed bool) {
		n := int(nRaw%32) + 1
		workers := int(workersRaw % 5) // 0 = serial pipeline
		rng := rand.New(rand.NewSource(seed))
		snap := func() uint64 {
			reach := int64(2 * p.Lambda)
			v := reach*int64(rng.Intn(6)) + int64(rng.Intn(int(reach)+1)) - int64(p.Lambda)
			if v < 0 {
				v = 0
			}
			return uint64(v)
		}
		pts := make([]geo.Point, n)
		bids := make([][]uint64, n)
		for i := range pts {
			pts[i] = geo.Point{X: snap(), Y: snap()}
			bids[i] = make([]uint64, p.Channels)
			for r := range bids[i] {
				bids[i][r] = uint64(rng.Intn(int(p.BMax) + 1))
			}
		}

		var opts []Option
		if workers > 0 {
			opts = append(opts, WithWorkers(workers))
		}
		if secondPrice {
			opts = append(opts, WithSecondPrice())
		}
		if observed {
			opts = append(opts, WithTelemetry(obs.Telemetry{Metrics: obs.NewRegistry()}))
		}
		res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1},
			Rng: rand.New(rand.NewSource(seed * 13))}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		tag := fmt.Sprintf("seed=%d n=%d workers=%d secondPrice=%v observed=%v", seed, n, workers, secondPrice, observed)
		checkPlaintextTruth(t, tag, p.Lambda, pts, bids, res, secondPrice)
	})
}
