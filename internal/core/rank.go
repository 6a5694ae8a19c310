package core

import (
	"fmt"
	"sort"

	"lppa/internal/mask"
)

// columnRank builds (once) and returns the dense rank memo of column r.
// Masked comparison is order-preserving — CompareGE(i, j) ⟺ the hidden
// blinded value of i is ≥ j's — so each column admits a total preorder:
// the column is interned, its distinct bid classes are ranked under the
// masked comparison (bidValueRanks), and those value ranks are the memo.
// The rank order is all bidders sorted by (value rank, index): ties in
// ascending index, the stable sort the comparator-driven memo produced.
// Submissions are immutable after NewAuctioneer, hence the memo never
// needs invalidation.
func (a *Auctioneer) columnRank(r int) []int {
	if r < 0 || r >= a.params.Channels {
		panic(fmt.Sprintf("core: channel %d out of range [0,%d)", r, a.params.Channels))
	}
	if a.rank == nil {
		a.rank = make([][]int, a.params.Channels)
		a.rankOrder = make([][]int, a.params.Channels)
		a.colCalls = make([]uint64, a.params.Channels)
	}
	if a.rank[r] == nil {
		col, total, distinct := internColumn(a.bids, r)
		var st mask.IntersectStats
		rank := bidValueRanks(col, func(i, j int) bool { return col[i].ge(&col[j], &st) })
		order := make([]int, len(rank))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(x, y int) bool {
			i, j := order[x], order[y]
			if rank[i] != rank[j] {
				return rank[i] < rank[j]
			}
			return i < j
		})
		a.rankOrder[r] = order
		a.rank[r] = rank
		a.colCalls[r] = st.Calls
		a.ob.noteIntern(total, distinct)
		a.ob.rankBuilds.Inc()
		a.ob.flushStats(&st)
	}
	return a.rank[r]
}

// bidValueRanks maps every bidder to a dense value rank (0 = highest bid)
// consistent with the column's masked total preorder. Bidders sharing one
// family digest set — one family Max, by internColumn's interning order —
// form a class: the full-width prefix makes the family injective in the
// blinded value, so class members carry the same value and the same
// non-padding range cover — identical ge outcomes on both sides under the
// no-digest-collision assumption CompareGE itself rests on (cover padding
// is random 16-byte noise that never equals a real family digest). Class
// representatives are stable-sorted under ge and adjacent ge-equal classes
// (distinct blinding slots, equal displayed value) fold into one rank, so
// rank[i] < rank[j] ⟺ i is strictly above j and equality means a masked
// tie. Masked-intersection cost is O(C log C) for C classes — C is the
// count of distinct blinded values, far below n for narrow bid ledgers,
// and degrades gracefully to n when every blinded value is unique.
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
