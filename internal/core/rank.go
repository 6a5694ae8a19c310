package core

import (
	"fmt"

	"lppa/internal/mask"
)

// columnRank returns the dense rank memo of column r: rank[r][i] is
// bidder i's value rank (0 = highest bid; masked ties share a rank) and
// rankOrder[r] is every bidder by (rank, index), ties in ascending index —
// exactly a stable sort under the masked comparison. The first use of any
// column builds them all (buildRanks). Submissions are immutable after
// NewAuctioneer, hence the memo never needs invalidation.
func (a *Auctioneer) columnRank(r int) []int {
	if r < 0 || r >= a.params.Channels {
		panic(fmt.Sprintf("core: channel %d out of range [0,%d)", r, a.params.Channels))
	}
	a.BuildRankMemos()
	return a.rank[r]
}

// BuildRankMemos builds every column's rank memo now rather than on first
// use by GE, RankChannel, Rankings or the allocator. The memos draw no
// randomness, so when they are built changes no answer.
func (a *Auctioneer) BuildRankMemos() {
	if a.rank == nil {
		a.buildRanks()
	}
}

// buildRanks builds every column's memo, columns striped over the
// workers. Each column has its own dictionary, which dies with its build,
// and writes only its own rank[r] and rankOrder[r], so the memos are the
// same for every worker count. Each build folds its intern tally once.
func (a *Auctioneer) buildRanks() {
	k := a.params.Channels
	a.rank = make([][]int, k)
	a.rankOrder = make([][]int, k)
	workers := a.width(k)
	fanOut(workers, func(w int) {
		for r := w; r < k; r += workers {
			var total, distinct int
			a.rank[r], a.rankOrder[r], total, distinct = dominanceRank(a.bids, r)
			a.ob.noteIntern(total, distinct)
			a.ob.rankBuilds.Inc()
		}
	})
}

// dominanceRank ranks column r by masked dominance counting, without a
// single comparison. A range cover Q([v, max]) tiles its interval with
// disjoint prefixes, and a family G(u) holds one prefix per level, each
// containing u, so G(u) meets Q([v, max]) at most once, and exactly when
// u ≥ v. Counting, per family digest, the bidders whose family holds it
// and summing those counts over bidder i's range digests therefore gives
//
//	c_i = Σ_{d ∈ Range_i} #{j : d ∈ Family_j} = #{j : GE(j, i)},
//
// and GE(i, j) ⟺ c_i ≤ c_j: the dense ranks of c, ascending, are the
// value ranks, and equal counts are masked ties. Range padding is random
// noise that matches no family digest — the no-collision assumption the
// masked comparison itself rests on — so pads add nothing, and c is a
// function of the GE relation the comparator reveals anyway.
//
// Only families are interned; each cover digest is a lookup. It also
// reports the family digests interned and how many were distinct, for the
// intern metrics.
//
// The counts are exact only when every family is a value's prefix chain.
// A bidder holds the masking keys, so it can submit a crafted family —
// digests of chosen prefixes, even of the right length — that meets other
// bidders' covers, several times each. Every cover it meets gains that
// many counts, which can reorder honest bidders among themselves without
// the crafted bidder winning, so the TTP's family check, which sees only
// winners, never runs on it (DESIGN.md §5g). The wire rejects channel bids
// of the wrong shape (transport.Submission.Validate), which bounds the gain
// per cover but not its effect. c then need not be bounded by n: counts
// above n+1 are clamped to n+1, so nothing is sized by a count's value, the
// build stays O(n + digests) in time and memory, and the column gets a
// deterministic order.
func dominanceRank(bids []*BidSubmission, r int) (rank, order []int, total, distinct int) {
	n := len(bids)
	for _, b := range bids {
		total += b.Channels[r].Family.Len()
	}
	hint := distinctBound(total, bids[0].Channels[r].Family.Len())
	dict := mask.NewDictCap(hint)
	counts := make([]uint32, 0, hint)
	for _, b := range bids {
		counts = dict.CountSet(b.Channels[r].Family, counts)
	}

	// rank[i] holds c_i (clamped) until it is replaced by its dense rank;
	// dense[c] marks the counts present, then maps each to its rank.
	rank = make([]int, n)
	dense := make([]int, n+2)
	for i, b := range bids {
		c := min(dict.SumCounts(b.Channels[r].Range, counts), uint64(n+1))
		rank[i] = int(c)
		dense[c] = 1
	}
	ranks := 0
	for c, seen := range dense {
		if seen != 0 {
			dense[c] = ranks
			ranks++
		}
	}

	// Counting sort by rank; scanning bidders in index order keeps ties in
	// ascending index. start[k] is where rank k's bidders begin in order.
	start := make([]int, ranks+1)
	for i, c := range rank {
		rank[i] = dense[c]
		start[rank[i]+1]++
	}
	for k := 1; k < len(start); k++ {
		start[k] += start[k-1]
	}
	order = make([]int, n)
	for i, k := range rank {
		order[start[k]] = i
		start[k]++
	}
	return rank, order, total, dict.Len()
}
