package core

import "lppa/internal/mask"

// Auctioneer-side interning (DESIGN.md §5b): on ingest the auctioneer maps
// every 16-byte location digest it receives to a dense uint32 ID and
// evaluates the conflict predicate on sorted-ID slices with a Bloom quick
// reject, instead of scanning 16-byte digests. The slice-based mask.Set
// stays the bidder-side encoding and wire type — interning is a private
// view of the same digests, so no protocol byte changes and every
// predicate outcome is identical by construction (pinned by the
// representation-equivalence tests). Dictionaries live for one auction:
// submissions are immutable after NewAuctioneer, so interned sets are
// never invalidated.

// Grouping keys. The conflict graph groups bidders whose four interned
// sets are equal (graphbuild.go); the key only finds the candidate groups
// to compare against. Equal sets have equal keys, so a key mismatch never
// splits a group, and equality decides. For honest submissions the key is
// also exact, so the comparison never fails: a prefix family determines
// its value, as it holds the value's full-width prefix, which no other
// family of the same width contains. If every family in a dictionary has
// one width and is interned before any range cover, each distinct family
// brings its own full-width digest in as a fresh ID larger than every ID
// of the families interned before it, so its largest ID (IntSet.Max) is
// distinct per distinct family. Hence one dictionary per location axis
// (the two axes can differ in width, and a narrower axis's family of v is
// a subset of the wider axis's family of v), each interning families
// first. A crafted submission breaks this only for itself: one that copies
// another location's families with its own covers shares that location's
// key but not its group. Bid columns are not interned this way: the rank
// memo counts family digests instead (rank.go).

// distinctBound caps a dictionary size hint of digests at the number of
// distinct digests one masking key can produce for families of famLen
// members. A width-w family has w+1 members, and the width-w domain has
// 2^(w+1) − 1 numericalized prefixes, so however many bidders submit, a
// dictionary of one key's families and unpadded covers holds at most
// 2^famLen digests. It is only a hint: a malformed submission beyond it
// makes the Dict grow.
func distinctBound(digests, famLen int) int {
	if famLen < 31 && 1<<famLen < digests {
		return 1 << famLen
	}
	return digests
}

// internedLocation is the compact form of one LocationSubmission. All
// bidders' X sets share one Dict and all Y sets another — the conflict
// predicate only ever intersects X with X and Y with Y — so cross-bidder
// intersections compare IDs meaningfully.
type internedLocation struct {
	xFamily, yFamily, xRange, yRange mask.IntSet
}

// key is equal for two bidders that submitted the same four sets, and for
// honest bidders only then (see Grouping keys above).
func (l *internedLocation) key() uint64 {
	return uint64(l.xFamily.Max())<<32 | uint64(l.yFamily.Max())
}

// equal reports whether two bidders submitted the same four sets.
func (l *internedLocation) equal(o *internedLocation) bool {
	return l.xFamily.Equal(o.xFamily) && l.yFamily.Equal(o.yFamily) &&
		l.xRange.Equal(o.xRange) && l.yRange.Equal(o.yRange)
}

// internLocations interns a whole population under one fresh dictionary
// per axis, families first (which makes key exact for honest families),
// then range covers. It also reports how many digests passed through the
// dictionaries and how many were distinct (dictionary misses) — the
// difference is the intern hit count the observability layer exports.
func internLocations(subs []*LocationSubmission) (out []internedLocation, total, distinct int) {
	capX, capY := 0, 0
	if len(subs) > 0 {
		s := subs[0]
		capX = distinctBound(len(subs)*(s.XFamily.Len()+s.XRange.Len()), s.XFamily.Len())
		capY = distinctBound(len(subs)*(s.YFamily.Len()+s.YRange.Len()), s.YFamily.Len())
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
