package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
)

// FuzzShardBoundaryEquivalence replays arbitrary (seed, population, shard
// count, pipeline, charging, observation) tuples with every bidder snapped
// onto or next to a tile boundary — the coordinates where the border-band
// bookkeeping has zero slack — and pins the sharded round bit-identical to
// the implicit single tile. All inputs derive from the fuzz arguments, so
// failures replay deterministically from the corpus file.
func FuzzShardBoundaryEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(4), uint8(1), false, false)
	f.Add(int64(2), uint8(25), uint8(8), uint8(3), true, false)
	f.Add(int64(3), uint8(7), uint8(2), uint8(2), false, true)
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), false, false)

	f.Fuzz(func(t *testing.T, seed int64, nRaw, shardsRaw, workersRaw uint8, secondPrice, observed bool) {
		n := int(nRaw%32) + 1
		shards := int(shardsRaw%15) + 1
		workers := int(workersRaw % 5) // 0 = serial pipeline
		p := core.Params{Channels: 3, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 40}
		ring, err := mask.DeriveKeyRing([]byte("shard-fuzz"), p.Channels, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := geo.NewTileGrid(p.MaxX, p.MaxY, p.Lambda, shards)
		if err != nil {
			t.Fatal(err)
		}

		rng := rand.New(rand.NewSource(seed))
		snap := func() uint64 {
			// A boundary multiple, then up to λ units of jitter either side
			// — points straddle the border band in every configuration.
			v := int64(tg.Width)*int64(rng.Intn(3)) + int64(rng.Intn(2*int(p.Lambda)+1)) - int64(p.Lambda)
			if v < 0 {
				v = 0
			}
			if v > int64(p.MaxX) {
				v = int64(p.MaxX)
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

		var base []Option
		if workers > 0 {
			base = append(base, WithWorkers(workers))
		}
		if secondPrice {
			base = append(base, WithSecondPrice())
		}
		if observed {
			base = append(base, WithObserver(obs.NewRegistry()))
		}
		run := func(extra ...Option) *Result {
			res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1},
				Rng: rand.New(rand.NewSource(seed * 13))}, append(append([]Option(nil), base...), extra...)...)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run()
		got := run(WithShards(shards))
		if !reflect.DeepEqual(want.Outcome, got.Outcome) {
			t.Fatalf("seed=%d n=%d shards=%d workers=%d secondPrice=%v observed=%v: outcomes differ",
				seed, n, shards, workers, secondPrice, observed)
		}
		if !want.Auctioneer.ConflictGraph().Equal(got.Auctioneer.ConflictGraph()) {
			t.Fatalf("seed=%d n=%d shards=%d: conflict graphs differ", seed, n, shards)
		}
		if !reflect.DeepEqual(want.Auctioneer.Rankings(), got.Auctioneer.Rankings()) {
			t.Fatalf("seed=%d n=%d shards=%d: rankings differ", seed, n, shards)
		}
	})
}
