package core

import "lppa/internal/mask"

// Auctioneer-side interning (DESIGN.md §5b): on ingest the auctioneer maps
// every 16-byte digest it receives to a dense uint32 ID and evaluates all
// masked set operations on sorted-ID slices with a Bloom quick reject,
// instead of scanning 16-byte digests. The slice-based mask.Set stays the
// bidder-side encoding and wire type — interning is a private view of the
// same digests, so no protocol byte changes and every predicate outcome is
// identical by construction (pinned by the representation-equivalence
// tests). Dictionaries live for one auction: submissions are immutable
// after NewAuctioneer, so interned sets are never invalidated.

// Grouping keys. A prefix family determines its value: it holds the
// value's full-width prefix, which no other family of the same width
// contains. If every family in a dictionary has one width and is interned
// before any range cover, each distinct family therefore brings its own
// full-width digest in as a fresh ID larger than every ID of the families
// interned before it, so the family's largest ID (IntSet.Max) is distinct
// per distinct family and equal for equal ones. Hence one dictionary per
// location axis (the two axes can differ in width, and a narrower axis's
// family of v is a subset of the wider axis's family of v) and one per
// bid column, each interning families first. That makes Max an exact
// same-value key without comparing sets, under the no-collision
// assumption masking itself rests on (range padding is random noise that
// never equals a family digest).

// internedLocation is the compact form of one LocationSubmission. All
// bidders' X sets share one Dict and all Y sets another — the conflict
// predicate only ever intersects X with X and Y with Y — so cross-bidder
// intersections compare IDs meaningfully.
type internedLocation struct {
	xFamily, yFamily, xRange, yRange mask.IntSet
}

// key is equal for two bidders exactly when they submitted the same
// location (see Grouping keys above).
func (l *internedLocation) key() uint64 {
	return uint64(l.xFamily.Max())<<32 | uint64(l.yFamily.Max())
}

// internLocations interns a whole population under one fresh dictionary
// per axis, families first (which makes key exact), then range covers. It
// also reports how many digests passed through the dictionaries and how
// many were distinct (dictionary misses) — the difference is the intern
// hit count the observability layer exports.
func internLocations(subs []*LocationSubmission) (out []internedLocation, total, distinct int) {
	capX, capY := 0, 0
	if len(subs) > 0 {
		s := subs[0]
		capX = len(subs) * (s.XFamily.Len() + s.XRange.Len())
		capY = len(subs) * (s.YFamily.Len() + s.YRange.Len())
	}
	dx, dy := mask.NewDictCap(capX), mask.NewDictCap(capY)
	// Bidders sharing one submission pointer (the batch encoder hands
	// co-located bidders the same immutable submission) intern once and
	// share the result: src[i] is the first bidder holding i's pointer.
	out = make([]internedLocation, len(subs))
	src := make([]int, len(subs))
	first := make(map[*LocationSubmission]int, len(subs))
	for i, s := range subs {
		j, ok := first[s]
		if !ok {
			j = i
			first[s] = i
			total += s.XFamily.Len() + s.YFamily.Len() + s.XRange.Len() + s.YRange.Len()
			out[i].xFamily = dx.InternSet(s.XFamily)
			out[i].yFamily = dy.InternSet(s.YFamily)
		}
		src[i] = j
	}
	for i, j := range src {
		if j == i {
			out[i].xRange = dx.InternSet(subs[i].XRange)
			out[i].yRange = dy.InternSet(subs[i].YRange)
		} else {
			out[i] = out[j]
		}
	}
	return out, total, dx.Len() + dy.Len()
}

// conflicts is Conflicts on the interned representation: i's coordinate
// families must intersect j's range covers on both axes. Every
// intersection is tallied into st.
func (a *internedLocation) conflicts(b *internedLocation, st *mask.IntersectStats) bool {
	return a.xFamily.IntersectsCounted(b.xRange, st) && a.yFamily.IntersectsCounted(b.yRange, st)
}

// internedChannelBid is the compact form of one ChannelBid. One Dict
// serves one bid column: digests under different per-channel keys never
// need to be compared, so per-column dictionaries keep IDs dense.
type internedChannelBid struct {
	family, rng mask.IntSet
}

// internColumn interns column r of a bid matrix under a fresh dictionary,
// families first, so a family's Max is its value class (see Grouping keys
// above). Like internLocations it reports digest throughput and distinct
// count for the observability layer.
func internColumn(bids []*BidSubmission, r int) (out []internedChannelBid, total, distinct int) {
	var dict *mask.Dict
	if len(bids) > 0 {
		cb := &bids[0].Channels[r]
		dict = mask.NewDictCap(len(bids) * (cb.Family.Len() + cb.Range.Len()))
	} else {
		dict = mask.NewDict()
	}
	out = make([]internedChannelBid, len(bids))
	for i, b := range bids {
		cb := &b.Channels[r]
		total += cb.Family.Len() + cb.Range.Len()
		out[i].family = dict.InternSet(cb.Family)
	}
	for i, b := range bids {
		out[i].rng = dict.InternSet(b.Channels[r].Range)
	}
	return out, total, dict.Len()
}

// ge is CompareGE on the interned representation, tallied into st.
func (a *internedChannelBid) ge(b *internedChannelBid, st *mask.IntersectStats) bool {
	return a.family.IntersectsCounted(b.rng, st)
}
