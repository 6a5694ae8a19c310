package core

import (
	"sync/atomic"
	"time"

	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// The one conflict-graph construction path behind Auctioneer.ConflictGraph
// (DESIGN.md §5f). Representation (interned / plain mask.Set), candidate
// strategy (all-pairs oracle / inverted index), worker count, and
// observation all meet in buildGraph, so a new strategy is wired in exactly
// once — previously the serial/parallel predicate plumbing was duplicated
// between ConflictGraph's switch and its observed twin in observe.go.

// EnableIndexedCandidates switches conflict-candidate generation to the
// inverted index over interned masked digests (mask.Index): candidate pairs
// come from posting-list self-joins on the X axis and only candidates are
// confirmed with the exact intersection predicate. Default off — the
// all-pairs scan remains the verification oracle, and the equivalence suite
// pins the indexed graph bit-identical to it. Ignored under
// DisableInterning (the index requires interned IDs); call before the first
// ConflictGraph/Allocate use.
func (a *Auctioneer) EnableIndexedCandidates() { a.indexed = true }

// PrepareCandidates eagerly runs the candidate-generation setup the
// conflict graph needs: interning the population and, in indexed mode,
// posting the inverted index during the same ingest pass. ConflictGraph
// does the same work lazily; round tracing calls this first so the setup
// lands in its own candidate_generation span. Reports whether an index is
// in play (indexed mode with interning enabled).
func (a *Auctioneer) PrepareCandidates() bool {
	if a.noIntern || !a.indexed {
		return false
	}
	a.internedView()
	return true
}

// IndexStats seals and describes the candidate index, or a zero value when
// no index is in play (not indexed, or interning disabled). Diagnostic
// surface for benchmarks and tests; building the view on demand mirrors
// ConflictGraph's laziness.
func (a *Auctioneer) IndexStats() mask.IndexStats {
	if a.noIntern || !a.indexed || a.plan != nil {
		// Sharded indexed builds use tile-local indexes — see
		// ShardIndexStats (shard.go) — and never build the global one.
		return mask.IndexStats{}
	}
	_, ix := a.internedView()
	return ix.Stats()
}

// internedView interns the population once — posting the inverted candidate
// index incrementally during the same ingest pass when indexed mode is on —
// and caches both on the auctioneer. Observed auctioneers fold the intern
// tallies in here and time the indexed ingest into lppa_index_build_seconds.
func (a *Auctioneer) internedView() ([]internedLocation, *mask.Index) {
	if a.iloc != nil {
		return a.iloc, a.locIndex
	}
	var start time.Time
	if a.ob != nil {
		start = time.Now()
	}
	var ix *mask.Index
	if a.indexed && a.plan == nil {
		// Sharded builds post tile-local indexes per shard instead
		// (buildGraphSharded); a global index would go unread.
		ix = mask.NewIndex(len(a.locs))
	}
	iloc, total, distinct := internLocations(a.locs, ix)
	a.iloc, a.locIndex = iloc, ix
	if a.ob != nil {
		a.ob.noteIntern(total, distinct)
		if ix != nil {
			a.ob.indexBuild.Observe(time.Since(start).Seconds())
		}
	}
	return a.iloc, a.locIndex
}

// BuildConflictGraphIndexed is BuildConflictGraph with candidates generated
// from the inverted digest index instead of the all-pairs sweep: the ingest
// pass posts each bidder's X family and X range cover into a mask.Index,
// posting-list self-joins propose candidate pairs, and only candidates are
// confirmed with the exact interned intersection. Bit-identical to
// BuildConflictGraph(Parallel) for every workload and worker count (≤ 1
// runs serially) — the all-pairs build stays the verification oracle.
func BuildConflictGraphIndexed(subs []*LocationSubmission, workers int) *conflict.Graph {
	ix := mask.NewIndex(len(subs))
	iloc, _, _ := internLocations(subs, ix)
	w := 1
	if workers > 1 {
		w = mask.Workers(workers, len(subs))
	}
	return conflict.BuildFromCandidatesParallel(len(subs), func() conflict.CandidateCursor {
		return ix.Cursor()
	}, func(i, j int) bool {
		return iloc[i].conflicts(&iloc[j])
	}, w)
}

// buildPairs runs the all-pairs oracle, serially or sharded. workers is
// already normalized (≤ 1 means serial).
func buildPairs(n int, pred func(i, j int) bool, workers int) *conflict.Graph {
	if workers > 1 {
		return conflict.BuildFromPredicateParallel(n, pred, workers)
	}
	return conflict.BuildFromPredicate(n, pred)
}

// buildGraph constructs the conflict graph for the current knob settings.
// Every combination yields the bit-identical graph: counted predicates
// delegate to the uncounted intersections, the parallel builds fix each
// adjacency bit's position by (i, j) alone, and the indexed candidates are
// a sound superset confirmed by the same predicate the oracle runs.
func (a *Auctioneer) buildGraph() *conflict.Graph {
	if a.plan != nil {
		return a.buildGraphSharded()
	}
	n := len(a.locs)
	workers := 1
	if a.workers > 1 {
		workers = mask.Workers(a.workers, n)
	}

	if a.noIntern {
		// Map-based ablation: indexed mode needs interned IDs, so the
		// all-pairs oracle runs on mask.Set directly.
		if a.ob == nil {
			return buildPairs(n, func(i, j int) bool {
				return Conflicts(a.locs[i], a.locs[j])
			}, workers)
		}
		var calls atomic.Uint64
		g := buildPairs(n, func(i, j int) bool {
			c := uint64(1)
			ok := a.locs[i].XFamily.Intersects(a.locs[j].XRange)
			if ok {
				c++
				ok = a.locs[i].YFamily.Intersects(a.locs[j].YRange)
			}
			calls.Add(c)
			return ok
		}, workers)
		a.ob.comparisons.Add(calls.Load())
		return g
	}

	iloc, ix := a.internedView()

	var calls, rejects atomic.Uint64
	pred := func(i, j int) bool { return iloc[i].conflicts(&iloc[j]) }
	if a.ob != nil {
		// Counted twin: tallies accumulate in atomics (the parallel sweep
		// shares the predicate across workers) and land in the registry
		// once, after the build.
		pred = func(i, j int) bool {
			var st mask.IntersectStats
			ok := iloc[i].conflictsCounted(&iloc[j], &st)
			calls.Add(st.Calls)
			rejects.Add(st.BloomRejects)
			return ok
		}
	}

	var g *conflict.Graph
	var cursors []*mask.IndexCursor
	if ix != nil {
		g = conflict.BuildFromCandidatesParallel(n, func() conflict.CandidateCursor {
			c := ix.Cursor()
			cursors = append(cursors, c) // called serially, one per worker
			return c
		}, pred, workers)
	} else {
		g = buildPairs(n, pred, workers)
	}

	if a.ob != nil {
		a.ob.comparisons.Add(calls.Load())
		a.ob.bloomRejects.Add(rejects.Load())
		if ix != nil {
			var scanned, emitted uint64
			for _, c := range cursors {
				s, e := c.Stats()
				scanned += s
				emitted += e
			}
			a.ob.indexPostings.Add(scanned)
			a.ob.indexCandidates.Add(emitted)
			a.ob.indexConfirms.Add(uint64(g.Edges()))
		}
	}
	return g
}
