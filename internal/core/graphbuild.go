package core

import (
	"sync/atomic"
	"time"

	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// The one conflict-graph construction path behind Auctioneer.ConflictGraph
// (DESIGN.md §5f). Every build runs over the auctioneer's tile plan — the
// implicit single tile when no shard plan was set — and inside each tile
// groups co-located bidders, generates candidate group pairs from a
// tile-local inverted index over interned digests, and confirms them with
// the exact masked predicate. The all-pairs build over plain mask.Set
// (BuildConflictGraph) is the verification oracle the tests pin it to.

// buildGraph evaluates the exact conflict predicate tile by tile over each
// tile's members (residents plus border visitors) and merges the tiles'
// edges into one graph. Coverage: if i and j conflict, each lies inside
// the other's interference square, so j is a member of i's home tile and
// vice versa; every true edge is therefore proposed by at least one tile,
// and AddEdge dedupes the border pairs both sides propose. The implicit
// single tile has every bidder as a resident and no visitors.
//
// Inside a tile, co-located bidders have identical masked families
// (location masking is deterministic under the shared key), so they form
// one distinct-location group: the predicate is evaluated once per
// candidate group pair and its verdict fanned out to every member
// cross-pair, and same-location pairs are unconditional edges — the exact
// predicate is Chebyshev distance < 2λ, and distance 0 always qualifies.
// Candidate group pairs come from a tile-local inverted index over one
// representative per group (mask.Index): groups are numbered in
// first-appearance order, and the skew guard's auto threshold
// max(64, G/8) is calibrated to the tile's distinct population G.
//
// Tiles record confirmed group pairs, not member pairs, and the serial
// merge expands them into the graph: a dense tile has far fewer distinct
// locations than edges (a 3000-bidder urban mix has ~300 locations and
// ~1.35 M edges), so the build never holds an edge list beside the graph.
// The graph is bit-identical for every plan and worker count: an
// adjacency bit's position depends only on (i, j).
func (a *Auctioneer) buildGraph() *conflict.Graph {
	n := len(a.locs)
	plan := a.tilePlan()
	// The interned view lives only as long as the build: nothing after it
	// reads locations.
	iloc, total, distinct := internLocations(a.locs)

	var calls, rejects atomic.Uint64
	pred := func(i, j int) bool { return iloc[i].conflicts(&iloc[j]) }
	if a.ob != nil {
		// Counted twin: tallies accumulate in atomics (tiles build in
		// parallel) and land in the registry once, after the build.
		pred = func(i, j int) bool {
			var st mask.IntersectStats
			ok := iloc[i].conflictsCounted(&iloc[j], &st)
			calls.Add(st.Calls)
			rejects.Add(st.BloomRejects)
			return ok
		}
	}

	// Per tile: its distinct-location groups and the confirmed group pairs,
	// packed ga<<32|gb with ga < gb.
	groups := make([][][]int, len(plan.Tiles))
	pairs := make([][]uint64, len(plan.Tiles))
	ixStats := make([]mask.IndexStats, len(plan.Tiles))
	var scanned, emitted atomic.Uint64

	a.forEachTile(func(t int) {
		tile := &plan.Tiles[t]
		var done func(int)
		if plan.OnShard != nil {
			done = plan.OnShard(t, len(tile.Residents), len(tile.Visitors))
		}
		members := mergeAscending(tile.Residents, tile.Visitors)
		groupOf := make(map[uint64]int, len(members))
		gs := make([][]int, 0, len(members))
		for _, m := range members {
			k := iloc[m].key()
			if g, ok := groupOf[k]; ok {
				gs[g] = append(gs[g], m)
			} else {
				groupOf[k] = len(gs)
				gs = append(gs, []int{m})
			}
		}

		var start time.Time
		if a.ob != nil {
			start = time.Now()
		}
		ix := mask.NewIndex(len(gs))
		for _, A := range gs {
			ix.Add(iloc[A[0]].xFamily, iloc[A[0]].xRange)
		}
		cur := ix.Cursor()
		if a.ob != nil {
			a.ob.indexBuild.Observe(time.Since(start).Seconds())
		}

		var ps []uint64
		edges := 0
		for ga, A := range gs {
			edges += len(A) * (len(A) - 1) / 2
			for _, gb := range cur.Row(ga) {
				if B := gs[gb]; pred(A[0], B[0]) {
					ps = append(ps, uint64(ga)<<32|uint64(gb))
					edges += len(A) * len(B)
				}
			}
		}
		s, e := cur.Stats()
		scanned.Add(s)
		emitted.Add(e)
		ixStats[t] = ix.Stats()
		groups[t], pairs[t] = gs, ps
		if done != nil {
			done(edges)
		}
	})

	g := conflict.NewGraph(n)
	for t, gs := range groups {
		for _, A := range gs {
			for x, i := range A {
				for _, j := range A[x+1:] {
					g.AddEdge(i, j)
				}
			}
		}
		for _, p := range pairs[t] {
			for _, i := range gs[p>>32] {
				for _, j := range gs[uint32(p)] {
					g.AddEdge(i, j)
				}
			}
		}
	}
	a.tileIx = ixStats

	if a.ob != nil {
		a.ob.noteIntern(total, distinct)
		a.ob.comparisons.Add(calls.Load())
		a.ob.bloomRejects.Add(rejects.Load())
		a.ob.indexPostings.Add(scanned.Load())
		a.ob.indexCandidates.Add(emitted.Load())
		a.ob.indexConfirms.Add(uint64(g.Edges()))
	}
	return g
}
