package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/geo"
	"lppa/internal/obs"
)

// testPlan builds a shard plan the way the round planner does — home tile
// by position, border-band visitors from the clamped interference square —
// but without the masking layer (plans are equivalent up to tile
// numbering, and the auctioneer only sees membership lists either way).
func testPlan(t *testing.T, p Params, pts []geo.Point, shards int) *ShardPlan {
	t.Helper()
	tg, err := geo.NewTileGrid(p.MaxX, p.MaxY, p.Lambda, shards)
	if err != nil {
		t.Fatal(err)
	}
	plan := &ShardPlan{Home: make([]int, len(pts))}
	slot := map[uint64]int{}
	for i, pt := range pts {
		tx, ty := tg.TileOf(pt)
		id := tg.ID(tx, ty)
		s, ok := slot[id]
		if !ok {
			s = len(plan.Tiles)
			slot[id] = s
			plan.Tiles = append(plan.Tiles, ShardTile{})
		}
		plan.Tiles[s].Residents = append(plan.Tiles[s].Residents, i)
		plan.Home[i] = s
	}
	for i, pt := range pts {
		for _, id := range tg.Touched(pt, 2*p.Lambda-1)[1:] {
			if s, ok := slot[id]; ok {
				plan.Tiles[s].Visitors = append(plan.Tiles[s].Visitors, i)
			}
		}
	}
	return plan
}

// TestShardedAuctioneerIdentity pins the core contract: for every density
// shape, tile count, and worker count, the sharded auctioneer's conflict
// graph, rankings, and allocation with runner-ups are bit-identical to the
// oracle's — and so to the implicit single tile, which the same grid in
// TestEngineMatchesOracle pins.
func TestShardedAuctioneerIdentity(t *testing.T) {
	p := testParams()
	const n = 60
	for _, shape := range densityShapes {
		pts := shapePoints(p, shape, n, 42)
		rng := rand.New(rand.NewSource(7))
		bids := make([][]uint64, n)
		for i := range bids {
			bids[i] = make([]uint64, p.Channels)
			for r := range bids[i] {
				bids[i][r] = uint64(rng.Intn(int(p.BMax) + 1))
			}
		}
		ref := buildRound(t, p, pts, bids, 99)
		wantGraph := BuildConflictGraph(ref.locs)
		wantRanks := make([][]int, p.Channels)
		for r := range wantRanks {
			wantRanks[r] = oracleRanking(ref.bids, r)
		}
		wantAwards, _, err := oracleAwards(p, ref.locs, ref.bids, nil, rand.New(rand.NewSource(55)))
		if err != nil {
			t.Fatal(err)
		}

		for _, shards := range []int{1, 4, 9} {
			for _, workers := range []int{1, 4} {
				tag := fmt.Sprintf("%s/shards=%d/workers=%d", shape, shards, workers)
				auc, err := NewAuctioneer(p, ref.locs, ref.bids)
				if err != nil {
					t.Fatal(err)
				}
				auc.SetWorkers(workers)
				if err := auc.SetShardPlan(testPlan(t, p, pts, shards)); err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !auc.ConflictGraph().Equal(wantGraph) {
					t.Errorf("%s: sharded graph differs from oracle", tag)
				}
				if !reflect.DeepEqual(auc.Rankings(), wantRanks) {
					t.Errorf("%s: sharded rankings differ from oracle", tag)
				}
				awards, err := auc.AllocateAwards(rand.New(rand.NewSource(55)))
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !reflect.DeepEqual(awards, wantAwards) {
					t.Errorf("%s: sharded awards differ from oracle\n got %v\nwant %v", tag, awards, wantAwards)
				}
			}
		}
	}
}

// TestSetShardPlanValidation covers the plan's integrity checks.
func TestSetShardPlanValidation(t *testing.T) {
	p := testParams()
	auc, pts, _ := randomRound(t, p, 8, 3)
	n := 8
	good := func() *ShardPlan { return testPlan(t, p, pts, 4) }

	if err := auc.SetShardPlan(&ShardPlan{Home: make([]int, n-1)}); err == nil {
		t.Error("short Home accepted")
	}
	bad := good()
	bad.Tiles[0].Residents = append(bad.Tiles[0].Residents, bad.Tiles[0].Residents[0])
	if err := auc.SetShardPlan(bad); err == nil {
		t.Error("duplicate resident accepted")
	}
	bad = good()
	bad.Home[bad.Tiles[0].Residents[0]]++
	if err := auc.SetShardPlan(bad); err == nil {
		t.Error("home/resident mismatch accepted")
	}
	bad = good()
	bad.Tiles[0].Visitors = append(bad.Tiles[0].Visitors, bad.Tiles[0].Residents[0])
	if err := auc.SetShardPlan(bad); err == nil {
		t.Error("visitor of own tile accepted")
	}
	bad = good()
	bad.Tiles[0].Residents = bad.Tiles[0].Residents[1:]
	if err := auc.SetShardPlan(bad); err == nil {
		t.Error("unplaced bidder accepted")
	}
	if err := auc.SetShardPlan(good()); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	auc.ConflictGraph()
	if err := auc.SetShardPlan(good()); err == nil {
		t.Error("re-sharding after graph build accepted")
	}

	if got := auc.ShardSizes(); len(got) == 0 {
		t.Error("ShardSizes empty on sharded auctioneer")
	} else {
		total := 0
		for _, s := range got {
			total += s
		}
		if total != n {
			t.Errorf("ShardSizes sum = %d, want %d", total, n)
		}
	}
}

// TestShardSkewGuardPerTile pins the per-tile skew guard: the index guard
// is calibrated to each tile's distinct locations, not the global n. 70
// distinct bidders sharing one x column inside one tile post that column's
// family digests 70 times, exceeding the tile's auto threshold
// max(64, G/8), and are flagged hot there — while the implicit single
// tile's index over all ~1000 distinct locations (threshold G/8 ≈ 125)
// sees no hot digest at all. The points are distinct on purpose:
// co-located bidders collapse into one distinct-location group, so a
// same-point stack can never skew a tile index.
func TestShardSkewGuardPerTile(t *testing.T) {
	p := Params{Channels: 1, Lambda: 2, MaxX: 999, MaxY: 999, BMax: 10}
	const stacked, spread = 70, 930
	rng := rand.New(rand.NewSource(8))
	pts := make([]geo.Point, 0, stacked+spread)
	for i := 0; i < stacked; i++ {
		pts = append(pts, geo.Point{X: 5, Y: uint64(i)})
	}
	for i := 0; i < spread; i++ {
		pts = append(pts, geo.Point{X: uint64(300 + rng.Intn(700)), Y: uint64(300 + rng.Intn(700))})
	}
	bids := make([][]uint64, len(pts))
	for i := range bids {
		bids[i] = []uint64{uint64(rng.Intn(int(p.BMax) + 1))}
	}

	global := buildRound(t, p, pts, bids, 12)
	if st := global.ShardIndexStats(); len(st) != 1 || st[0].HotDigests != 0 {
		t.Fatalf("implicit-tile index stats = %+v, want one tile with no hot digest (threshold n/8 = %d > stack of %d)",
			st, len(pts)/8, stacked)
	}

	sharded := buildRound(t, p, pts, bids, 12)
	if err := sharded.SetShardPlan(testPlan(t, p, pts, 64)); err != nil {
		t.Fatal(err)
	}
	stats := sharded.ShardIndexStats()
	if stats == nil {
		t.Fatal("ShardIndexStats nil on sharded auctioneer")
	}
	hotTiles, hotRows := 0, 0
	for _, st := range stats {
		if st.HotDigests > 0 {
			hotTiles++
			hotRows += st.HotRows
		}
	}
	if hotTiles == 0 {
		t.Fatalf("no tile tripped the per-tile skew guard; stats = %+v", stats)
	}
	if hotRows < stacked {
		t.Errorf("hot rows = %d, want at least the %d stacked bidders", hotRows, stacked)
	}

	// And the guard difference never changes the graph.
	if !sharded.ConflictGraph().Equal(global.ConflictGraph()) {
		t.Error("sharded graph differs from the implicit tile's graph")
	}
}

// TestShardObserverCounters pins the per-shard telemetry satellite: an
// observed sharded round exports lppa_shard_rank_builds_total and
// lppa_shard_rank_memo_hits_total per shard, the builds summing to
// tiles × columns built, while results stay identical to unobserved.
func TestShardObserverCounters(t *testing.T) {
	p := testParams()
	auc, pts, bids := randomRound(t, p, 40, 21)
	reg := obs.NewRegistry()
	auc.SetObserver(reg)
	if err := auc.SetShardPlan(testPlan(t, p, pts, 4)); err != nil {
		t.Fatal(err)
	}
	awards, err := auc.AllocateAwards(rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}

	plain := buildRound(t, p, pts, bids, 21+1000)
	if err := plain.SetShardPlan(testPlan(t, p, pts, 4)); err != nil {
		t.Fatal(err)
	}
	plainAwards, err := plain.AllocateAwards(rand.New(rand.NewSource(33)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(awards, plainAwards) {
		t.Fatal("observed sharded awards differ from unobserved")
	}

	tiles := len(auc.ShardSizes())
	snap := reg.Snapshot()
	var builds, hits uint64
	for s := 0; s < tiles; s++ {
		builds += snap.Counters[fmt.Sprintf(`lppa_shard_rank_builds_total{shard="%d"}`, s)]
		hits += snap.Counters[fmt.Sprintf(`lppa_shard_rank_memo_hits_total{shard="%d"}`, s)]
	}
	if want := uint64(tiles * p.Channels); builds != want {
		t.Errorf("shard rank builds = %d, want %d (tiles × channels)", builds, want)
	}
	if hits == 0 {
		t.Error("no per-shard memo hits recorded during allocation")
	}
	if hits != snap.Counters["lppa_auctioneer_rank_memo_hits_total"] {
		t.Errorf("per-shard hits %d != total memo hits %d",
			hits, snap.Counters["lppa_auctioneer_rank_memo_hits_total"])
	}
}
