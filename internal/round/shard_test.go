package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// runShardPair runs the same round unsharded and sharded and pins every
// observable equal: the result surface (sameResult), the transcript
// rankings, and the conflict graph itself.
func runShardPair(t *testing.T, tag string, p core.Params, pts []geo.Point, bids [][]uint64,
	pol core.DisguisePolicy, seed int64, base []Option, shards int) {
	t.Helper()
	ring, err := mask.DeriveKeyRing([]byte("round-shard"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	run := func(extra ...Option) *Result {
		t.Helper()
		res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: pol,
			Rng: rand.New(rand.NewSource(seed))}, append(append([]Option(nil), base...), extra...)...)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return res
	}
	want := run()
	got := run(WithShards(shards))
	sameResult(t, tag, want, got)
	if !reflect.DeepEqual(want.Auctioneer.Rankings(), got.Auctioneer.Rankings()) {
		t.Errorf("%s: rankings differ between unsharded and %d shards", tag, shards)
	}
	if !want.Auctioneer.ConflictGraph().Equal(got.Auctioneer.ConflictGraph()) {
		t.Errorf("%s: conflict graphs differ between unsharded and %d shards", tag, shards)
	}
}

// TestRunShardGridEquivalence is the tentpole equivalence grid: for every
// pipeline shape × interning mode × candidate strategy × charging rule ×
// density shape, WithShards(k) must be bit-identical to the unsharded
// round — including k = 1, the degenerate single-tile case.
func TestRunShardGridEquivalence(t *testing.T) {
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	const n = 40

	pipelines := []struct {
		tag  string
		opts []Option
	}{
		{"serial", nil},
		{"workers4", []Option{WithWorkers(4)}},
	}
	charging := []struct {
		tag  string
		opts []Option
	}{
		{"firstprice", nil},
		{"secondprice", []Option{WithSecondPrice()}},
		{"interactive", []Option{WithInteractiveCharging()}},
	}
	densities := []struct {
		tag string
		pts func(rng *rand.Rand) []geo.Point
	}{
		{"uniform", func(rng *rand.Rand) []geo.Point {
			pts := make([]geo.Point, n)
			for i := range pts {
				pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
			}
			return pts
		}},
		{"clustered", func(rng *rand.Rand) []geo.Point {
			// Everyone within a couple of tiles: exercises near-degenerate
			// plans where one tile holds most of the population.
			pts := make([]geo.Point, n)
			for i := range pts {
				pts[i] = geo.Point{X: uint64(40 + rng.Intn(20)), Y: uint64(40 + rng.Intn(20))}
			}
			return pts
		}},
	}

	p := core.Params{Channels: 4, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	for _, seed := range []int64{3, 17} {
		rng := rand.New(rand.NewSource(seed))
		bids := make([][]uint64, n)
		for i := range bids {
			bids[i] = make([]uint64, p.Channels)
			for r := range bids[i] {
				if rng.Intn(4) > 0 {
					bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
				}
			}
		}
		for _, de := range densities {
			pts := de.pts(rng)
			for _, pl := range pipelines {
				for _, ch := range charging {
					base := append(append([]Option(nil), pl.opts...), ch.opts...)
					for _, shards := range []int{1, 2, 4, 8} {
						runShardPair(t, de.tag+"/"+pl.tag+"/"+ch.tag, p, pts, bids, pol, seed*7, base, shards)
					}
				}
			}
		}
	}
}

// TestRunShardBoundaryBidders seeds bidders exactly on tile boundaries
// (coordinates at multiples of the tile width, and one unit either side)
// where the border-band bookkeeping has the least slack, and pins shard
// equivalence there.
func TestRunShardBoundaryBidders(t *testing.T) {
	p := core.Params{Channels: 3, Lambda: 3, MaxX: 99, MaxY: 99, BMax: 50}
	tg, err := geo.NewTileGrid(p.MaxX, p.MaxY, p.Lambda, 8)
	if err != nil {
		t.Fatal(err)
	}
	w := tg.Width
	var pts []geo.Point
	for _, x := range []uint64{0, w - 1, w, w + 1, 2*w - 1, 2 * w, p.MaxX} {
		for _, y := range []uint64{0, w - 1, w, w + 1, 2*w - 1, 2 * w, p.MaxY} {
			if x <= p.MaxX && y <= p.MaxY {
				pts = append(pts, geo.Point{X: x, Y: y})
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	bids := make([][]uint64, len(pts))
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			bids[i][r] = uint64(rng.Intn(int(p.BMax) + 1))
		}
	}
	pol := core.DisguisePolicy{P0: 1}
	for _, shards := range []int{1, 4, 8, 16} {
		runShardPair(t, "boundary", p, pts, bids, pol, 23, nil, shards)
		runShardPair(t, "boundary-workers4", p, pts, bids, pol, 23,
			[]Option{WithWorkers(4)}, shards)
	}
}

// TestRunShardQuorumCompaction pins that a sharded quorum round plans over
// the surviving population: one unencodable bidder is excluded and the rest
// allocate exactly as the unsharded degraded round does.
func TestRunShardQuorumCompaction(t *testing.T) {
	const n, bad = 14, 4
	p, ring, pts, bids := parallelFixture(t, n, 2, 9)
	pts[bad] = geo.Point{X: p.MaxX + 1, Y: 0}
	in := func() Input {
		return Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1},
			Rng: rand.New(rand.NewSource(11))}
	}
	want, err := Run(p, ring, in(), WithQuorum(n-1), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(p, ring, in(), WithQuorum(n-1), WithWorkers(2), WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "quorum-sharded", want, got)
	if !reflect.DeepEqual(got.Excluded, []int{bad}) {
		t.Fatalf("Excluded = %v, want [%d]", got.Excluded, bad)
	}
}

// TestWithShardsValidation covers the option's error path.
func TestWithShardsValidation(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 4, 2, 1)
	in := Input{Points: pts, Bids: bids, Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(1))}
	if _, err := Run(p, ring, in, WithShards(0)); err == nil {
		t.Error("zero shard count accepted")
	}
	if _, err := Run(p, ring, in, WithShards(-3)); err == nil {
		t.Error("negative shard count accepted")
	}
}
