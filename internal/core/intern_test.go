package core

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/geo"
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
