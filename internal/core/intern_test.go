package core

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// TestConflictGraphRepresentationEquivalence pins the interned build
// (Bloom quick reject + sorted-ID merges, location grouping, candidate
// index) to the oracle that evaluates Conflicts on the plain mask.Set
// submissions directly, across populations, λ, and encoding worker counts.
func TestConflictGraphRepresentationEquivalence(t *testing.T) {
	for _, lambda := range []uint64{1, 2, 4} {
		p := Params{Channels: 1, Lambda: lambda, MaxX: 99, MaxY: 99, BMax: 100}
		ring := testRing(t, p, 5, 8)
		for _, n := range []int{2, 30, 90} {
			pts := randomPoints(p, n, int64(lambda)*53+int64(n))
			for _, workers := range []int{1, 2, 4} {
				subs, err := NewLocationSubmissions(p, ring, pts, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := engineGraph(t, p, subs); !got.Equal(BuildConflictGraph(subs)) {
					t.Errorf("lambda=%d n=%d workers=%d: interned graph differs from oracle", lambda, n, workers)
				}
			}
		}
	}
}

// TestAuctioneerRepresentationEquivalence runs several rounds through the
// auctioneer and through the oracle and demands identical transcripts and
// identical full allocations: the interned representation, value ranks
// and rank cursor may never change an auction outcome.
func TestAuctioneerRepresentationEquivalence(t *testing.T) {
	p := testParams()
	for _, seed := range []int64{3, 11, 29} {
		auc, _, _ := randomRound(t, p, 25, seed)

		if !auc.ConflictGraph().Equal(BuildConflictGraph(auc.locs)) {
			t.Errorf("seed=%d: conflict graph differs from oracle", seed)
		}
		ge := oracleGE(auc.bids)
		for r := 0; r < p.Channels; r++ {
			for i := 0; i < auc.N(); i++ {
				for j := 0; j < auc.N(); j++ {
					if auc.GE(r, i, j) != ge(r, i, j) {
						t.Fatalf("seed=%d r=%d: GE(%d,%d) differs from oracle", seed, r, i, j)
					}
				}
			}
			if got, want := auc.RankChannel(r), oracleRanking(auc.bids, r); !reflect.DeepEqual(got, want) {
				t.Errorf("seed=%d r=%d: ranking differs from oracle", seed, r)
			}
		}
		got, err := auc.Allocate(rand.New(rand.NewSource(seed * 7)))
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := oracleAwards(p, auc.locs, auc.bids, nil, rand.New(rand.NewSource(seed*7)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("seed=%d: %d assignments, oracle %d", seed, len(got), len(want))
		}
		for x := range got {
			if got[x] != want[x].Assignment {
				t.Errorf("seed=%d: assignment %d = %v, oracle %v", seed, x, got[x], want[x].Assignment)
			}
		}
	}
}

// TestGEMemoMatchesRawUnderInterning extends the memo-correctness anchor
// to the interned value ranks: every memoized GE answer must equal the
// direct masked intersection over the plain submissions.
func TestGEMemoMatchesRawUnderInterning(t *testing.T) {
	p := testParams()
	auc, _, _ := randomRound(t, p, 20, 47)
	ge := oracleGE(auc.bids)
	for r := 0; r < p.Channels; r++ {
		for i := 0; i < auc.N(); i++ {
			for j := 0; j < auc.N(); j++ {
				if got, want := auc.GE(r, i, j), ge(r, i, j); got != want {
					t.Fatalf("r=%d: interned memo GE(%d,%d)=%v, raw=%v", r, i, j, got, want)
				}
			}
		}
	}
}

// TestLocationGroupingAcrossAxisWidths pins the grouping key on a
// non-square domain, where one coordinate's prefix family is a subset of
// the same value's family on the wider axis: bidders at x = 3 and x = 40
// share y but never conflict, and the engine must keep them in separate
// location groups whatever order their digests reach the dictionaries.
func TestLocationGroupingAcrossAxisWidths(t *testing.T) {
	p := Params{Channels: 1, Lambda: 2, MaxX: 999, MaxY: 99, BMax: 10}
	ring := testRing(t, p, 5, 8)
	pts := []geo.Point{{X: 900, Y: 3}, {X: 901, Y: 40}, {X: 3, Y: 70}, {X: 40, Y: 70}}
	locs, err := NewLocationSubmissions(p, ring, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := BuildConflictGraph(locs)
	if want.HasEdge(2, 3) {
		t.Fatal("fixture: bidders 2 and 3 must not conflict")
	}
	if got := engineGraph(t, p, locs); !got.Equal(want) {
		t.Errorf("engine graph differs from oracle (edge 2–3: %v)", got.HasEdge(2, 3))
	}
	for _, shape := range densityShapes {
		pts := shapePoints(p, shape, 80, 5)
		locs, err := NewLocationSubmissions(p, ring, pts, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := engineGraph(t, p, locs); !got.Equal(BuildConflictGraph(locs)) {
			t.Errorf("%s: engine graph differs from oracle on a non-square domain", shape)
		}
	}
}

// craftedLocation is what a bidder holding g0 can submit to share
// victim's grouping key: victim's families with far's range covers. With
// prefixed set, each family lists far's family digests first and then all
// of victim's, which gives it victim's key whenever it is interned first.
func craftedLocation(victim, far *LocationSubmission, prefixed bool) *LocationSubmission {
	c := &LocationSubmission{XFamily: victim.XFamily, YFamily: victim.YFamily, XRange: far.XRange, YRange: far.YRange}
	if prefixed {
		c.XFamily = mask.NewSet(append(far.XFamily.Digests(), victim.XFamily.Digests()...))
		c.YFamily = mask.NewSet(append(far.YFamily.Digests(), victim.YFamily.Digests()...))
	}
	return c
}

// checkHonestEdges fails unless every pair of honest bidders (honest[i]
// is bidder i's true point, nil for a crafted bidder) has an edge in g
// exactly when the plaintext predicate says they conflict.
func checkHonestEdges(t *testing.T, tag string, p Params, g *conflict.Graph, honest []*geo.Point) {
	t.Helper()
	for i, a := range honest {
		for j := i + 1; j < len(honest); j++ {
			b := honest[j]
			if a == nil || b == nil {
				continue
			}
			if got, want := g.HasEdge(i, j), geo.Conflict(*a, *b, p.Lambda); got != want {
				t.Errorf("%s: honest bidders %d at %v and %d at %v: edge %v, plaintext truth %v",
					tag, i, *a, j, *b, got, want)
			}
		}
	}
}

// TestLocationGroupingCraftedSubmission pins that a crafted location
// submission decides only its own edges. Honest bidders M at (50,50) and
// F at (52,51) conflict; a crafted bidder C submits F's families, as they
// are or behind the family digests of (5,90), with the covers of (5,90),
// and stands before or after F. Each variant shares F's grouping key when
// C stands first, so with C as the group's representative its covers
// would decide F's edges and drop M–F. Every honest pair's edge must equal
// the plaintext truth's, and one channel bid 90 (M), 10 (C) and 80 (F)
// must go to honest bidders that do not interfere.
func TestLocationGroupingCraftedSubmission(t *testing.T) {
	p := testParams()
	p.Channels = 1
	ring := testRing(t, p, 5, 8)
	m, f, far := geo.Point{X: 50, Y: 50}, geo.Point{X: 52, Y: 51}, geo.Point{X: 5, Y: 90}
	locs, err := NewLocationSubmissions(p, ring, []geo.Point{m, f, far}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !geo.Conflict(m, f, p.Lambda) {
		t.Fatal("fixture: M and F must conflict")
	}
	rng := rand.New(rand.NewSource(1))
	enc, err := NewBidEncoder(p, ring, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	bid := func(v uint64) *BidSubmission {
		sub, err := enc.Encode([]uint64{v}, rng)
		if err != nil {
			t.Fatal(err)
		}
		return sub
	}
	mBid, cBid, fBid := bid(90), bid(10), bid(80)

	for _, prefixed := range []bool{false, true} {
		c := craftedLocation(locs[1], locs[2], prefixed)
		for _, cFirst := range []bool{true, false} {
			tag := "C after F"
			subs := []*LocationSubmission{locs[0], locs[1], c}
			bids := []*BidSubmission{mBid, fBid, cBid}
			honest := []*geo.Point{&m, &f, nil}
			if cFirst {
				tag = "C before F"
				subs = []*LocationSubmission{locs[0], c, locs[1]}
				bids = []*BidSubmission{mBid, cBid, fBid}
				honest = []*geo.Point{&m, nil, &f}
			}
			if prefixed {
				tag += ", foreign digests first"
			}
			for _, workers := range []int{1, 2} {
				auc, err := NewAuctioneer(p, subs, bids)
				if err != nil {
					t.Fatal(err)
				}
				auc.SetWorkers(workers)
				checkHonestEdges(t, tag, p, auc.ConflictGraph(), honest)

				assignments, err := auc.Allocate(rand.New(rand.NewSource(2)))
				if err != nil {
					t.Fatal(err)
				}
				var honestAwards []auction.Assignment
				var honestPts []geo.Point
				for i, pt := range honest {
					if pt == nil {
						continue
					}
					for _, as := range assignments {
						if as.Bidder == i {
							honestAwards = append(honestAwards, auction.Assignment{Bidder: len(honestPts), Channel: as.Channel})
						}
					}
					honestPts = append(honestPts, *pt)
				}
				if err := auction.VerifyInterferenceFree(honestAwards, conflict.BuildPlain(honestPts, p.Lambda)); err != nil {
					t.Errorf("%s, workers=%d: awards %v: %v", tag, workers, assignments, err)
				}
			}
		}
	}
}
