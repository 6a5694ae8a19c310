package core

import (
	"strconv"

	"lppa/internal/mask"
	"lppa/internal/obs"
)

// Observability wiring for the auctioneer (DESIGN.md §5c). The unobserved
// hot paths — the conflict-graph builder (graphbuild.go), columnRank's
// value ranking, the allocator's memo reads — run uncounted: attaching a
// registry swaps in counted twins of the same operations, and every
// predicate outcome is unchanged because the counted mask operations
// delegate to the uncounted ones.

// aucObs holds the auctioneer's counter handles, resolved once in
// SetObserver so the observed paths never take the registry lock.
type aucObs struct {
	comparisons   *obs.Counter // masked set intersections evaluated
	bloomRejects  *obs.Counter // of those, decided by the Bloom pre-check
	rankMemoHits  *obs.Counter // GE answers served from a built column memo
	rankBuilds    *obs.Counter // column memos built
	internDigests *obs.Counter // digests pushed through intern dictionaries
	internHits    *obs.Counter // of those, already present (dedup wins)
	internMisses  *obs.Counter // of those, first sightings (distinct digests)

	// Candidate generation (graphbuild.go): the tile-local indexes.
	indexPostings   *obs.Counter   // posting-list entries scanned for candidates
	indexCandidates *obs.Counter   // candidate group pairs handed to the exact confirm
	indexConfirms   *obs.Counter   // conflict edges the build produced
	indexBuild      *obs.Histogram // seconds posting and sealing one tile's index

	// Per-shard rank-memo telemetry (explicit shard plans only; shard.go).
	// The registry handle is kept so the counters can be minted lazily when
	// a shard plan arrives — the plan's tile count is unknown at SetObserver
	// time.
	reg             *obs.Registry
	shardRankBuilds []*obs.Counter // per-tile column sorts contributing to memos
	shardMemoHits   []*obs.Counter // memo entries served to the allocator, by home tile
}

// ensureShardCounters mints the per-shard counter handles for k tiles.
func (o *aucObs) ensureShardCounters(k int) {
	for s := len(o.shardRankBuilds); s < k; s++ {
		lbl := obs.L("shard", strconv.Itoa(s))
		o.shardRankBuilds = append(o.shardRankBuilds, o.reg.Counter("lppa_shard_rank_builds_total", lbl))
		o.shardMemoHits = append(o.shardMemoHits, o.reg.Counter("lppa_shard_rank_memo_hits_total", lbl))
	}
}

// SetObserver attaches a metrics registry to the auctioneer. Call it
// before the first ConflictGraph/GE/Allocate use — the lazily built caches
// are counted only while being built. A nil registry detaches (the
// default), leaving every hot path exactly as fast as an unobserved run.
func (a *Auctioneer) SetObserver(reg *obs.Registry) {
	if reg == nil {
		a.ob = nil
		return
	}
	a.ob = &aucObs{
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

		reg: reg,
	}
	if a.sharded {
		a.ob.ensureShardCounters(len(a.plan.Tiles))
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

// servedHook returns the rank-cursor allocator's telemetry callback: each
// memo entry the allocator examines counts as one memo hit, attributed to
// the bidder's home tile under an explicit shard plan. Nil — no callback,
// no per-entry branch — when unobserved.
func (a *Auctioneer) servedHook() func(bidder int) {
	if a.ob == nil {
		return nil
	}
	hits := a.ob.rankMemoHits
	if !a.sharded {
		return func(int) { hits.Inc() }
	}
	home := a.plan.Home
	shard := a.ob.shardMemoHits
	return func(bidder int) {
		hits.Inc()
		shard[home[bidder]].Inc()
	}
}
