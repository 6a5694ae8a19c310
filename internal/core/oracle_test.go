package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/geo"
	"lppa/internal/obs"
)

// The verification oracle the auctioneer's one execution path is pinned
// to: the all-pairs conflict graph over plain mask.Set submissions
// (BuildConflictGraph), each column's rank order as a stable sort under
// CompareGE, and the paper's Algorithm 3 as auction.AllocateAwards driven
// by a CompareGE comparator. It shares none of the engine's interning,
// location grouping, candidate index, value ranks or rank cursor, and no
// production code calls it.

// BuildConflictGraph constructs the interference graph from masked
// submissions only, by evaluating Conflicts on every pair over the plain
// mask.Set representation.
func BuildConflictGraph(subs []*LocationSubmission) *conflict.Graph {
	return conflict.BuildFromPredicate(len(subs), func(i, j int) bool {
		return Conflicts(subs[i], subs[j])
	})
}

// CompareGE is the paper's masked comparison: it reports whether bid a is
// at least bid b on the same channel, via H(G(a)) ∩ H(Q([b, max])) ≠ ∅.
// Both bids must come from the same channel (and hence the same key);
// cross-channel comparisons are meaningless by construction and return
// garbage — that is the point of per-channel keys.
func CompareGE(a, b *ChannelBid) bool {
	return a.Family.Intersects(b.Range)
}

// oracleGE compares two bidders' masked bids on channel r directly.
func oracleGE(bids []*BidSubmission) auction.GE {
	return func(r, i, j int) bool { return CompareGE(&bids[i].Channels[r], &bids[j].Channels[r]) }
}

// oracleRanking returns every bidder stable-sorted by strictly greater
// masked bid on channel r.
func oracleRanking(bids []*BidSubmission, r int) []int {
	ge := oracleGE(bids)
	order := make([]int, len(bids))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(x, y int) bool {
		i, j := order[x], order[y]
		return ge(r, i, j) && !ge(r, j, i)
	})
	return order
}

// oracleAwards runs Algorithm 3 over the oracle graph and comparator: the
// awards with their runner-ups (the second-price input) and the voided
// awards under valid.
func oracleAwards(p Params, locs []*LocationSubmission, bids []*BidSubmission, valid auction.Validity, rng *rand.Rand) ([]auction.Award, []auction.Assignment, error) {
	n, k := len(bids), p.Channels
	return auction.AllocateAwards(n, k, fullPresent(n, k), BuildConflictGraph(locs), oracleGE(bids), valid, rng)
}

// oracleSubmissions encodes one population: a density shape, bids with a
// third of (bidder, channel) pairs at zero, and — with disguise — the
// advanced scheme's disguised zeros, which make the validity oracle bite.
func oracleSubmissions(t *testing.T, p Params, shape string, n int, seed int64, disguise bool) ([]geo.Point, [][]uint64, []*LocationSubmission, []*BidSubmission) {
	t.Helper()
	pts := shapePoints(p, shape, n, seed)
	rng := rand.New(rand.NewSource(seed + 1))
	bids := make([][]uint64, n)
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(3) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
	}
	ring := testRing(t, p, 5, 8)
	locs, err := NewLocationSubmissions(p, ring, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	var sampler *DisguiseSampler
	if disguise {
		if sampler, err = NewDisguiseSampler(DisguisePolicy{P0: 0.5, Decay: 0.9}, p.BMax); err != nil {
			t.Fatal(err)
		}
	}
	subs := make([]*BidSubmission, n)
	for i := range subs {
		enc, err := NewBidEncoder(p, ring, sampler, rng)
		if err != nil {
			t.Fatal(err)
		}
		if subs[i], err = enc.Encode(bids[i], rng); err != nil {
			t.Fatal(err)
		}
	}
	return pts, bids, locs, subs
}

// engineAuctioneer is an auctioneer over location submissions alone (bids
// are empty placeholders the conflict graph never reads).
func engineAuctioneer(t testing.TB, p Params, locs []*LocationSubmission) *Auctioneer {
	t.Helper()
	bids := make([]*BidSubmission, len(locs))
	for i := range bids {
		bids[i] = &BidSubmission{Channels: make([]ChannelBid, p.Channels)}
	}
	auc, err := NewAuctioneer(p, locs, bids)
	if err != nil {
		t.Fatal(err)
	}
	return auc
}

// engineGraph builds the auctioneer's conflict graph over location
// submissions alone.
func engineGraph(t testing.TB, p Params, locs []*LocationSubmission) *conflict.Graph {
	t.Helper()
	return engineAuctioneer(t, p, locs).ConflictGraph()
}

// engineGraphWorkers is engineGraph with the build fanned out over workers.
func engineGraphWorkers(t testing.TB, p Params, locs []*LocationSubmission, workers int) *conflict.Graph {
	t.Helper()
	auc := engineAuctioneer(t, p, locs)
	auc.SetWorkers(workers)
	return auc.ConflictGraph()
}

// TestEngineMatchesOracle is the equivalence grid of the one execution
// path: for every density shape, with and without disguised zeros, the
// auctioneer's rank memos match the comparator oracle (checkRankOracle) at
// n=60 and at n=300 over seeds 1–5, built by seed workers; and at n=60,
// unobserved and observed, built by 1, 2 and 8 workers, its conflict
// graph, awards with runner-ups (second price), first-price assignments,
// and validity-checked awards and voids are exactly the oracle's.
func TestEngineMatchesOracle(t *testing.T) {
	p := testParams()
	const n = 60
	for _, shape := range densityShapes {
		for _, disguise := range []bool{false, true} {
			for seed := int64(1); seed <= 5; seed++ {
				_, _, locs, subs := oracleSubmissions(t, p, shape, 300, seed, disguise)
				auc, err := NewAuctioneer(p, locs, subs)
				if err != nil {
					t.Fatal(err)
				}
				auc.SetWorkers(int(seed))
				checkRankOracle(t, fmt.Sprintf("%s/disguise=%v/n=300/seed=%d/workers=%d", shape, disguise, seed, seed), auc, subs, seed)
			}

			_, bids, locs, subs := oracleSubmissions(t, p, shape, n, 42, disguise)
			wantGraph := BuildConflictGraph(locs)
			valid := func(i, r int) bool { return bids[i][r] > 0 }
			wantAwards, _, err := oracleAwards(p, locs, subs, nil, rand.New(rand.NewSource(55)))
			if err != nil {
				t.Fatal(err)
			}
			wantValid, wantVoided, err := oracleAwards(p, locs, subs, valid, rand.New(rand.NewSource(56)))
			if err != nil {
				t.Fatal(err)
			}

			for _, observed := range []bool{false, true} {
				for _, workers := range []int{1, 2, 8} {
					tag := fmt.Sprintf("%s/disguise=%v/observed=%v/workers=%d", shape, disguise, observed, workers)
					engine := func() *Auctioneer {
						auc, err := NewAuctioneer(p, locs, subs)
						if err != nil {
							t.Fatal(err)
						}
						if observed {
							auc.SetObserver(obs.NewRegistry())
						}
						auc.SetWorkers(workers)
						return auc
					}

					auc := engine()
					if !auc.ConflictGraph().Equal(wantGraph) {
						t.Errorf("%s: graph differs from oracle", tag)
					}
					checkRankOracle(t, tag, auc, subs, 42)
					awards, err := auc.AllocateAwards(rand.New(rand.NewSource(55)))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if !reflect.DeepEqual(awards, wantAwards) {
						t.Errorf("%s: awards differ from oracle\n got %v\nwant %v", tag, awards, wantAwards)
					}

					assignments, err := engine().Allocate(rand.New(rand.NewSource(55)))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if len(assignments) != len(wantAwards) {
						t.Fatalf("%s: %d first-price assignments, want %d", tag, len(assignments), len(wantAwards))
					}
					for x, as := range assignments {
						if as != wantAwards[x].Assignment {
							t.Errorf("%s: assignment %d = %v, oracle %v", tag, x, as, wantAwards[x].Assignment)
						}
					}

					awarded, voided, err := engine().AllocateWithValidity(valid, rand.New(rand.NewSource(56)))
					if err != nil {
						t.Fatalf("%s: %v", tag, err)
					}
					if len(awarded) != len(wantValid) {
						t.Fatalf("%s: %d validity-checked awards, want %d", tag, len(awarded), len(wantValid))
					}
					for x, as := range awarded {
						if as != wantValid[x].Assignment {
							t.Errorf("%s: validity-checked award %d = %v, oracle %v", tag, x, as, wantValid[x].Assignment)
						}
					}
					if !reflect.DeepEqual(voided, wantVoided) {
						t.Errorf("%s: voided %v, oracle %v", tag, voided, wantVoided)
					}
				}
			}
		}
	}
}

// checkRankOracle pins auc's rank memos to the comparator oracle on every
// channel: Rankings() equals the stable sort under CompareGE, and GE
// equals the raw masked intersection on every adjacent pair of the oracle
// order, both ways (which pins every tie), and on every pair that
// involves one of 8 bidders sampled with seed.
func checkRankOracle(t *testing.T, tag string, auc *Auctioneer, subs []*BidSubmission, seed int64) {
	t.Helper()
	n := len(subs)
	got := auc.Rankings()
	ge := oracleGE(subs)
	sample := rand.New(rand.NewSource(seed)).Perm(n)[:8]
	for r := range got {
		want := oracleRanking(subs, r)
		if !reflect.DeepEqual(got[r], want) {
			t.Fatalf("%s: channel %d ranking differs from oracle", tag, r)
		}
		for k := 1; k < n; k++ {
			i, j := want[k-1], want[k]
			if auc.GE(r, i, j) != ge(r, i, j) || auc.GE(r, j, i) != ge(r, j, i) {
				t.Fatalf("%s: channel %d GE on adjacent %d,%d differs from oracle", tag, r, i, j)
			}
		}
		for _, i := range sample {
			for j := 0; j < n; j++ {
				if auc.GE(r, i, j) != ge(r, i, j) || auc.GE(r, j, i) != ge(r, j, i) {
					t.Fatalf("%s: channel %d GE on %d,%d differs from oracle", tag, r, i, j)
				}
			}
		}
	}
}
