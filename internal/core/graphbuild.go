package core

import (
	"time"

	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// The one conflict-graph construction path behind Auctioneer.ConflictGraph
// (DESIGN.md §5g): group co-located bidders, generate candidate group pairs
// from an inverted index over interned digests, and confirm them with the
// exact masked predicate. The all-pairs build over plain mask.Set
// (BuildConflictGraph) is the verification oracle the tests pin it to.

// buildGraph evaluates the exact conflict predicate over the population's
// distinct locations and fans each verdict out to the member bidders.
//
// Co-located bidders have identical masked families (location masking is
// deterministic under the shared key), so they form one distinct-location
// group: the predicate is evaluated once per candidate group pair and its
// verdict applied to every member cross-pair, and same-location pairs are
// unconditional edges — the exact predicate is Chebyshev distance < 2λ,
// and distance 0 always qualifies. Candidate group pairs come from an
// inverted index over one representative per group (mask.Index): groups
// are numbered in first-appearance order, and the skew guard's auto
// threshold max(64, G/8) is calibrated to the distinct population G, so a
// stack of co-located bidders never skews the index.
//
// Edges go straight into the bitset graph: a dense population has far
// fewer distinct locations than edges (a 3000-bidder urban mix has ~300
// locations and ~1.35 M edges), so the build never holds an edge list
// beside the graph. An adjacency bit's position depends only on (i, j), so
// the graph is the same whatever order edges arrive in.
func (a *Auctioneer) buildGraph() *conflict.Graph {
	n := len(a.locs)
	// The interned view lives only as long as the build: nothing after it
	// reads locations.
	iloc, total, distinct := internLocations(a.locs)

	var st mask.IntersectStats
	groupOf := make(map[uint64]int, n)
	groups := make([][]int, 0, n)
	for i := range iloc {
		k := iloc[i].key()
		if g, ok := groupOf[k]; ok {
			groups[g] = append(groups[g], i)
		} else {
			groupOf[k] = len(groups)
			groups = append(groups, []int{i})
		}
	}

	start := time.Now()
	ix := mask.NewIndex(len(groups))
	for _, A := range groups {
		ix.Add(iloc[A[0]].xFamily, iloc[A[0]].xRange)
	}
	cur := ix.Cursor()
	indexBuild := time.Since(start)

	g := conflict.NewGraph(n)
	for ga, A := range groups {
		for x, i := range A {
			for _, j := range A[x+1:] {
				g.AddEdge(i, j)
			}
		}
		for _, gb := range cur.Row(ga) {
			if B := groups[gb]; iloc[A[0]].conflicts(&iloc[B[0]], &st) {
				for _, i := range A {
					for _, j := range B {
						g.AddEdge(i, j)
					}
				}
			}
		}
	}
	a.ixStats = ix.Stats()

	// One fold per build; with no registry attached every handle is nil.
	scanned, emitted := cur.Stats()
	a.ob.indexBuild.Observe(indexBuild.Seconds())
	a.ob.noteIntern(total, distinct)
	a.ob.flushStats(&st)
	a.ob.indexPostings.Add(scanned)
	a.ob.indexCandidates.Add(emitted)
	a.ob.indexConfirms.Add(uint64(g.Edges()))
	return g
}
