package core

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lppa/internal/mask"
	"lppa/internal/prefix"
)

// TestDominanceRankMalformedColumn feeds the memo column 0 sets no
// encoder produces, which NewAuctioneer accepts although the wire rejects
// them (transport.Submission.Validate): a family holding every
// numericalized prefix of the bid domain under the column key (it meets
// every cover once per cover prefix), a 4096-digest range holding every
// prefix too (its count is the column's total family digests), and empty
// families and ranges. No build may panic; every column's memo must be a
// permutation in (rank, index) order over dense ranks; and the build's
// allocation must not depend on the counts' values, which here exceed n.
func TestDominanceRankMalformedColumn(t *testing.T) {
	p := testParams()
	const n = 30
	ring := testRing(t, p, 5, 8)
	_, _, locs, subs := oracleSubmissions(t, p, "uniform", n, 9, true)

	m, err := mask.NewMasker(ring.GB[0])
	if err != nil {
		t.Fatal(err)
	}
	w := prefix.WidthFor(p.ScaledMax(ring))
	var all []mask.Digest
	for v := uint64(1); v < 1<<(w+1); v++ {
		all = append(all, m.Mask(v))
	}
	pads := func(k int, seed int64) []mask.Digest {
		rng := rand.New(rand.NewSource(seed))
		out := make([]mask.Digest, k)
		for i := range out {
			rng.Read(out[i][:])
		}
		return out
	}
	wide := append(append([]mask.Digest(nil), all...), pads(4096-len(all), 1)...)

	col := func(s *BidSubmission) *ChannelBid { return &s.Channels[0] }
	col(subs[0]).Family = mask.NewSet(all)
	col(subs[1]).Range = mask.NewSet(wide)
	col(subs[2]).Family, col(subs[2]).Range = mask.Set{}, mask.Set{}
	col(subs[3]).Range = mask.Set{}
	col(subs[4]).Family = mask.Set{}

	auc, err := NewAuctioneer(p, locs, subs)
	if err != nil {
		t.Fatal(err)
	}
	for r, order := range auc.Rankings() {
		rank := auc.columnRank(r)
		seen := make([]bool, n)
		for k, i := range order {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("channel %d: order %v is not a permutation", r, order)
			}
			seen[i] = true
			if k == 0 {
				if rank[i] != 0 {
					t.Fatalf("channel %d: first bidder has rank %d, want 0", r, rank[i])
				}
				continue
			}
			prev := order[k-1]
			if d := rank[i] - rank[prev]; d < 0 || d > 1 || d == 0 && i < prev {
				t.Fatalf("channel %d: order %v over ranks %v is not dense (rank, index) order", r, order, rank)
			}
		}
	}

	// The same sets with the wide range's real prefixes replaced by pads:
	// bidder 1's count falls from the column's total family digests to 0
	// while every set keeps its size, so the allocation must stay the same
	// up to the rank table of at most n+2 entries.
	flat := append([]*BidSubmission(nil), subs...)
	flat[1] = &BidSubmission{Channels: append([]ChannelBid(nil), subs[1].Channels...)}
	col(flat[1]).Range = mask.NewSet(pads(4096, 2))
	wideRank, _, _, _ := dominanceRank(subs, 0)
	flatRank, _, _, _ := dominanceRank(flat, 0)
	if wideRank[1] != slices.Max(wideRank) || flatRank[1] != 0 {
		t.Fatalf("fixture: bidder 1 ranks %d of %d with the wide range, want last, and %d with pads, want 0",
			wideRank[1], slices.Max(wideRank), flatRank[1])
	}
	wideBytes := allocBytes(func() { dominanceRank(subs, 0) })
	flatBytes := allocBytes(func() { dominanceRank(flat, 0) })
	if slack := uint64(8*(n+2) + 512); wideBytes > flatBytes+slack {
		t.Errorf("counts above n allocated %d bytes per build, counts within n %d", wideBytes, flatBytes)
	}
}

// TestDominanceRankCraftedFamily pins what one crafted family of the
// right shape does to the counting memo — the behaviour DESIGN.md §5g
// accepts. Three honest bidders bid 200, 100 and 50 on an 8-bit domain. A
// fourth holds the column key and submits, with an honest range for 10, a
// family of w+1 digests: the masked cover Q([200, 255]), a guess at the
// top bid, padded with random digests. Its three prefixes all meet the top
// bidder's cover, whose count grows from 1 to 4, so the top honest bidder
// ranks last, below the two it outbids, while the crafted bidder ties
// for second and wins nothing the TTP would check. The memo stays a
// permutation over dense ranks.
func TestDominanceRankCraftedFamily(t *testing.T) {
	const w, top = 8, 255
	m, err := mask.NewMasker(testRing(t, testParams(), 5, 8).GB[0])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	honest := func(v uint64) ChannelBid {
		rs := m.MaskSet(prefix.Numericalized(prefix.Cover(v, top, w)))
		rs.PadTo(prefix.MaxCoverSize(w), rng)
		return ChannelBid{Family: m.MaskSet(prefix.Numericalized(prefix.Family(v, w))), Range: rs}
	}
	column := func(last ChannelBid) []*BidSubmission {
		var bids []*BidSubmission
		for _, cb := range []ChannelBid{honest(200), honest(100), honest(50), last} {
			bids = append(bids, &BidSubmission{Channels: []ChannelBid{cb}})
		}
		return bids
	}

	_, order, _, _ := dominanceRank(column(honest(10)), 0)
	if !slices.Equal(order, []int{0, 1, 2, 3}) {
		t.Fatalf("honest column order %v, want [0 1 2 3]", order)
	}

	crafted := honest(10)
	crafted.Family = m.MaskSet(prefix.Numericalized(prefix.Cover(200, top, w)))
	crafted.Family.PadTo(prefix.FamilySize(w), rng)
	if crafted.Family.Len() != prefix.FamilySize(w) || crafted.Range.Len() != prefix.MaxCoverSize(w) {
		t.Fatalf("fixture: crafted bid has %d+%d digests, not an encoder's shape", crafted.Family.Len(), crafted.Range.Len())
	}
	rank, order, _, _ := dominanceRank(column(crafted), 0)
	if !slices.Equal(order, []int{1, 2, 3, 0}) || !slices.Equal(rank, []int{2, 0, 1, 1}) {
		t.Fatalf("crafted column order %v over ranks %v, want [1 2 3 0] over [2 0 1 1]", order, rank)
	}
}

// allocBytes reports the mean heap bytes one call of f allocates.
func allocBytes(f func()) uint64 {
	const runs = 20
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs
}
