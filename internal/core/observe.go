package core

import (
	"lppa/internal/mask"
	"lppa/internal/obs"
)

// Observability wiring for the auctioneer (DESIGN.md §5c). Every build
// counts: the conflict-graph builder (graphbuild.go), each column's rank
// memo build (rank.go) and the allocator's memo reads tally into locals,
// and each build folds its tallies once through the handles below, whose
// counters are atomic, so a build's workers may fold concurrently. With
// no registry attached the handles are nil and the fold is a no-op.

// aucObs holds the auctioneer's counter handles, resolved once in
// SetObserver so a build never takes the registry lock. The zero value,
// every handle nil, is the detached state.
type aucObs struct {
	comparisons   *obs.Counter // masked set intersections evaluated
	bloomRejects  *obs.Counter // of those, decided by the Bloom pre-check
	rankMemoHits  *obs.Counter // GE answers served from a built column memo
	rankBuilds    *obs.Counter // column memos built
	internDigests *obs.Counter // digests pushed through intern dictionaries
	internHits    *obs.Counter // of those, already present (dedup wins)
	internMisses  *obs.Counter // of those, first sightings (distinct digests)

	// Candidate generation (graphbuild.go): the location index.
	indexPostings   *obs.Counter   // posting-list entries scanned for candidates
	indexCandidates *obs.Counter   // candidate group pairs handed to the exact confirm
	indexConfirms   *obs.Counter   // conflict edges the build produced
	indexBuild      *obs.Histogram // seconds posting and sealing the index
}

// SetObserver attaches a metrics registry to the auctioneer. Call it
// before the first ConflictGraph/GE/Allocate use — the lazily built caches
// report their counts when they are built. A nil registry detaches (the
// default). Results are identical either way.
func (a *Auctioneer) SetObserver(reg *obs.Registry) {
	a.ob = aucObs{
		comparisons:   reg.Counter("lppa_auctioneer_comparisons_total"),
		bloomRejects:  reg.Counter("lppa_auctioneer_bloom_rejects_total"),
		rankMemoHits:  reg.Counter("lppa_auctioneer_rank_memo_hits_total"),
		rankBuilds:    reg.Counter("lppa_auctioneer_rank_builds_total"),
		internDigests: reg.Counter("lppa_intern_digests_total"),
		internHits:    reg.Counter("lppa_intern_hits_total"),
		internMisses:  reg.Counter("lppa_intern_misses_total"),

		indexPostings:   reg.Counter("lppa_index_postings_scanned_total"),
		indexCandidates: reg.Counter("lppa_index_candidates_total"),
		indexConfirms:   reg.Counter("lppa_index_oracle_confirms_total"),
		indexBuild:      reg.Histogram("lppa_index_build_seconds", nil),
	}
}

// noteIntern folds one dictionary's ingest into the intern metrics: total
// digests passed through, of which distinct were first sightings (misses)
// and the rest were dedup hits.
func (o *aucObs) noteIntern(total, distinct int) {
	o.internDigests.Add(uint64(total))
	o.internHits.Add(uint64(total - distinct))
	o.internMisses.Add(uint64(distinct))
}

// flushStats folds a finished intersection tally into the registry.
func (o *aucObs) flushStats(st *mask.IntersectStats) {
	o.comparisons.Add(st.Calls)
	o.bloomRejects.Add(st.BloomRejects)
}
