package core

import (
	"sync"
	"time"

	"lppa/internal/conflict"
	"lppa/internal/mask"
)

// The one conflict-graph construction path behind Auctioneer.ConflictGraph
// (DESIGN.md §5g): group co-located bidders, generate candidate group pairs
// from an inverted index over interned digests, confirm them with the
// exact masked predicate, and write the graph one group row at a time. The
// tests pin it to an all-pairs build over plain mask.Set (oracle_test.go).

// buildGraph evaluates the exact conflict predicate over the population's
// distinct locations and writes each verdict to the member bidders.
//
// Bidders whose four masked sets are equal form one distinct-location
// group; co-located bidders always do, since location masking is
// deterministic under the shared key. The predicate is evaluated once per
// candidate group pair, and same-location pairs are unconditional edges —
// the exact predicate is Chebyshev distance < 2λ, and distance 0 always
// qualifies. A submission that copies another location's families but
// not its covers opens a group of its own, so it decides only its own
// edges, never those of the bidders it copied. Candidate
// group pairs come from an inverted index over one representative per
// group (mask.Index): groups are numbered in first-appearance order, and
// the skew guard's auto threshold max(64, G/8) is calibrated to the
// distinct population G, so a stack of co-located bidders never skews the
// index.
//
// Interning, grouping and the index are serial. The confirm step stripes
// group rows over the workers, each with its own cursor and tally, into a
// CSR group adjacency, and conflict.FromGroups writes each group's bidder
// row once and copies it to the other members. The build never holds a
// bidder-pair edge list: a dense population has far fewer distinct
// locations than edges (a 3000-bidder urban mix has ~300 locations and
// ~1.35 M edges). Every verdict, tally and adjacency bit depends only on
// the group pair, so the graph and the counters are the same for every
// worker count.
func (a *Auctioneer) buildGraph() *conflict.Graph {
	n := len(a.locs)
	// The interned view lives only as long as the build: nothing after it
	// reads locations.
	iloc, total, distinct := internLocations(a.locs)

	// group[i] is bidder i's group; reps[k] is group k's first member. The
	// key only finds candidate groups: head[key] and the next chain list
	// the groups with that key (none ends a chain). Bidder i joins the one
	// whose representative submitted i's four sets, or opens a new group.
	const none = ^uint32(0)
	head := make(map[uint64]uint32, n)
	group := make([]uint32, n)
	var reps []int
	var next []uint32
	for i := range iloc {
		k := iloc[i].key()
		first, ok := head[k]
		if !ok {
			first = none
		}
		gi := first
		for gi != none && !iloc[reps[gi]].equal(&iloc[i]) {
			gi = next[gi]
		}
		if gi == none {
			gi = uint32(len(reps))
			reps = append(reps, i)
			next = append(next, first)
			head[k] = gi
		}
		group[i] = gi
	}
	groups := len(reps)

	start := time.Now()
	ix := mask.NewIndex(groups)
	for _, i := range reps {
		ix.Add(iloc[i].xFamily, iloc[i].xRange)
	}
	// Stats seals the index, so the workers' cursors share it read-only.
	a.ixStats = ix.Stats()
	indexBuild := time.Since(start)

	// Worker w confirms rows k ≡ w (mod workers) with its own cursor and
	// lists each row's partners above it, in row order. It tallies into
	// locals and stores them once: tallies in adjacent slots would share
	// cache lines.
	type stripe struct {
		partners         []uint32
		counts           []int // partners per row, in row order
		st               mask.IntersectStats
		scanned, emitted uint64
	}
	workers := a.width(groups)
	stripes := make([]stripe, workers)
	fanOut(workers, func(w int) {
		var s stripe
		cur := ix.Cursor()
		for k := w; k < groups; k += workers {
			before := len(s.partners)
			for _, h := range cur.Row(k) {
				if iloc[reps[k]].conflicts(&iloc[reps[h]], &s.st) {
					s.partners = append(s.partners, h)
				}
			}
			s.counts = append(s.counts, len(s.partners)-before)
		}
		s.scanned, s.emitted = cur.Stats()
		stripes[w] = s
	})

	// The symmetric CSR group adjacency: adj[off[k]:off[k+1]] lists k's
	// partners.
	pairs := func(fn func(k int, h uint32)) {
		for w, s := range stripes {
			p := s.partners
			for j, c := range s.counts {
				for _, h := range p[:c] {
					fn(w+j*workers, h)
				}
				p = p[c:]
			}
		}
	}
	off := make([]int, groups+1)
	pairs(func(k int, h uint32) {
		off[k+1]++
		off[h+1]++
	})
	for k := 1; k <= groups; k++ {
		off[k] += off[k-1]
	}
	adj := make([]uint32, off[groups])
	fill := append([]int(nil), off[:groups]...)
	pairs(func(k int, h uint32) {
		adj[fill[k]] = h
		fill[k]++
		adj[fill[h]] = uint32(k)
		fill[h]++
	})
	g := conflict.FromGroups(group, off, adj, workers)

	// One fold per build; with no registry attached every handle is nil.
	var st mask.IntersectStats
	for _, s := range stripes {
		st.Calls += s.st.Calls
		st.BloomRejects += s.st.BloomRejects
		a.ob.indexPostings.Add(s.scanned)
		a.ob.indexCandidates.Add(s.emitted)
	}
	a.ob.indexBuild.Observe(indexBuild.Seconds())
	a.ob.noteIntern(total, distinct)
	a.ob.flushStats(&st)
	a.ob.indexConfirms.Add(uint64(g.Edges()))
	return g
}

// fanOut runs fn(w) for every w in [0, workers), each on its own
// goroutine, and waits for all of them; one worker runs on the caller.
func fanOut(workers int, fn func(w int)) {
	if workers <= 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}
