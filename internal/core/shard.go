package core

import (
	"fmt"
	"sort"
	"sync"

	"lppa/internal/mask"
)

// Tiled auctioneer execution (DESIGN.md §5g). Every build runs over a tile
// plan: an explicit one from SetShardPlan (round.WithShards), or the
// implicit single tile — every bidder a resident, no visitors — that an
// auctioneer without a plan creates on first use. The conflict relation
// reaches at most 2λ−1 in each coordinate, so once bidders are grouped into
// tiles whose side is a multiple of 2λ (geo.TileGrid), every conflict pair
// is co-located in at least one tile — as a resident plus a resident or
// border-band visitor — and the union of per-tile conflict graphs is
// exactly the global graph (graphbuild.go). The same locality shards the
// rank order: per-tile sorts by value rank merged under the column's total
// order reproduce the global stable sort bit for bit. Allocation is one
// global sweep (its rng consumption is inherently sequential) through the
// rank-cursor allocator (auction.AllocateAwardsOrdered), which the memos
// feed directly. The tiling changes only how the work is split, never the
// answer.

// ShardTile lists one tile's bidders. Residents live in the tile (each
// bidder is a resident of exactly one tile); Visitors live elsewhere but
// their interference square overlaps this tile (the border band), so
// resident–visitor pairs cover every cross-tile conflict. Both slices are
// ascending by bidder index.
type ShardTile struct {
	Residents []int
	Visitors  []int
}

// ShardPlan is the planner's output: the tile membership lists and each
// bidder's home tile. OnShard, when non-nil, is invoked at the start of
// each tile's conflict-graph build (possibly from a worker goroutine) and
// the returned func with the tile's confirmed edge count when it finishes
// — the round layer hangs per-shard tracer spans on it.
type ShardPlan struct {
	Tiles   []ShardTile
	Home    []int
	OnShard func(shard, residents, visitors int) func(edges int)
}

// SetShardPlan re-tiles the auctioneer: the conflict graph and the rank
// orders are built over p's tiles instead of the implicit single tile.
// Results are bit-identical either way. Call before the first
// ConflictGraph/GE/Allocate use (the lazily built caches cannot be
// re-tiled); nil reverts to the implicit tile.
func (a *Auctioneer) SetShardPlan(p *ShardPlan) error {
	if a.graph != nil || a.rank != nil {
		return fmt.Errorf("core: SetShardPlan after caches were built")
	}
	if p == nil {
		a.plan, a.sharded = nil, false
		return nil
	}
	n := a.N()
	if len(p.Home) != n {
		return fmt.Errorf("core: shard plan homes %d bidders, want %d", len(p.Home), n)
	}
	seen := make([]bool, n)
	placed := 0
	for s := range p.Tiles {
		t := &p.Tiles[s]
		for _, i := range t.Residents {
			if i < 0 || i >= n {
				return fmt.Errorf("core: shard %d resident %d out of range", s, i)
			}
			if p.Home[i] != s {
				return fmt.Errorf("core: bidder %d resident of shard %d but homed to %d", i, s, p.Home[i])
			}
			if seen[i] {
				return fmt.Errorf("core: bidder %d resident of two shards", i)
			}
			seen[i] = true
			placed++
		}
		for _, i := range t.Visitors {
			if i < 0 || i >= n {
				return fmt.Errorf("core: shard %d visitor %d out of range", s, i)
			}
			if p.Home[i] == s {
				return fmt.Errorf("core: bidder %d visits its own shard %d", i, s)
			}
		}
	}
	if placed != n {
		return fmt.Errorf("core: shard plan places %d of %d bidders", placed, n)
	}
	a.plan, a.sharded = p, true
	if a.ob != nil {
		a.ob.ensureShardCounters(len(p.Tiles))
	}
	return nil
}

// tilePlan returns the plan every build runs over: the explicit one, or
// the implicit single tile, created on first use.
func (a *Auctioneer) tilePlan() *ShardPlan {
	if a.plan == nil {
		n := a.N()
		all := make([]int, n)
		for i := range all {
			all[i] = i
		}
		a.plan = &ShardPlan{Tiles: []ShardTile{{Residents: all}}, Home: make([]int, n)}
	}
	return a.plan
}

// ShardSizes reports the resident count of every tile — each bidder's tile
// anonymity set from the auctioneer's perspective, the privacy knob the
// audit layer surfaces. Nil without an explicit plan: the implicit tile
// is the whole population and adds nothing to report.
func (a *Auctioneer) ShardSizes() []int {
	if !a.sharded {
		return nil
	}
	out := make([]int, len(a.plan.Tiles))
	for s := range a.plan.Tiles {
		out[s] = len(a.plan.Tiles[s].Residents)
	}
	return out
}

// ShardIndexStats describes each tile's candidate index after the
// conflict-graph build (forcing the build if needed) — one entry, the
// implicit tile's, without an explicit plan. The skew guard inside each
// tile is calibrated to that tile's distinct locations, not the global n.
func (a *Auctioneer) ShardIndexStats() []mask.IndexStats {
	a.ConflictGraph()
	return append([]mask.IndexStats(nil), a.tileIx...)
}

// shardWorkers normalizes the goroutine count for a sweep over the tiles.
func (a *Auctioneer) shardWorkers() int {
	if a.workers > 1 {
		return mask.Workers(a.workers, len(a.plan.Tiles))
	}
	return 1
}

// forEachTile runs fn(t) for every tile, striped across the worker count.
func (a *Auctioneer) forEachTile(fn func(t int)) {
	tiles := len(a.plan.Tiles)
	workers := a.shardWorkers()
	if workers <= 1 {
		for t := 0; t < tiles; t++ {
			fn(t)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for t := w; t < tiles; t += workers {
				fn(t)
			}
		}(w)
	}
	wg.Wait()
}

// mergeAscending merges two ascending disjoint index slices.
func mergeAscending(a, b []int) []int {
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// tileOrder builds a column's rank order — all bidders by ascending value
// rank, ties in ascending index — by sorting each tile's residents
// independently (in parallel when workers allow) and merging the runs
// under the same key. Identity argument: each tile's residents are an
// index-ascending subsequence, so their sorted run agrees with the global
// order restricted to them, and merging with the tie rule "equal ranks →
// smaller index first" is therefore exactly the global stable sort the
// comparator-driven memo produced.
func (a *Auctioneer) tileOrder(rank []int) []int {
	tiles := a.tilePlan().Tiles
	precede := func(i, j int) bool {
		if rank[i] != rank[j] {
			return rank[i] < rank[j]
		}
		return i < j
	}
	runs := make([][]int, len(tiles))
	a.forEachTile(func(t int) {
		order := append([]int(nil), tiles[t].Residents...)
		sort.Slice(order, func(x, y int) bool { return precede(order[x], order[y]) })
		runs[t] = order
	})
	if a.ob != nil && a.sharded {
		for t := range tiles {
			a.ob.shardRankBuilds[t].Inc()
		}
	}
	for len(runs) > 1 {
		next := make([][]int, 0, (len(runs)+1)/2)
		for x := 0; x+1 < len(runs); x += 2 {
			next = append(next, mergeRuns(runs[x], runs[x+1], precede))
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		runs = next
	}
	return runs[0]
}

// bidValueRanks maps every bidder to a dense value rank (0 = highest bid)
// consistent with the column's masked total preorder. Bidders sharing one
// family digest set — one family Max, by internColumn's interning order —
// form a class: the full-width prefix makes the family injective in the
// blinded value, so class members carry the same value and the same
// non-padding range cover — identical ge outcomes on both sides under the
// no-digest-collision assumption CompareGE itself rests on (cover padding
// is random 16-byte noise that never equals a real family digest). Class representatives are stable-sorted under ge and
// adjacent ge-equal classes (distinct blinding slots, equal displayed
// value) fold into one rank, so rank[i] < rank[j] ⟺ i is strictly above j
// and equality means a masked tie. Masked-intersection cost is O(C log C)
// for C classes — C is the count of distinct blinded values, far below n
// for narrow bid ledgers, and degrades gracefully to n when every blinded
// value is unique.
func bidValueRanks(col []internedChannelBid, ge func(i, j int) bool) []int {
	classOf := make([]int, len(col))
	byMax := make(map[uint32]int, len(col))
	var reps []int
	for i := range col {
		c, ok := byMax[col[i].family.Max()]
		if !ok {
			c = len(reps)
			byMax[col[i].family.Max()] = c
			reps = append(reps, i)
		}
		classOf[i] = c
	}

	sort.SliceStable(reps, func(x, y int) bool {
		i, j := reps[x], reps[y]
		return ge(i, j) && !ge(j, i)
	})
	rankOf := make([]int, len(reps))
	rk := 0
	for x, i := range reps {
		if x > 0 && !(ge(i, reps[x-1]) && ge(reps[x-1], i)) {
			rk++ // strictly below the previous class: new value rank
		}
		rankOf[classOf[i]] = rk
	}

	for i, c := range classOf {
		classOf[i] = rankOf[c]
	}
	return classOf
}

// mergeRuns merges two runs already sorted under precede.
func mergeRuns(a, b []int, precede func(i, j int) bool) []int {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make([]int, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if precede(a[i], b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}
