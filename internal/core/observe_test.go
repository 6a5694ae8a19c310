package core

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/obs"
)

// TestObservedAuctioneerIdenticalResults pins the observability contract:
// attaching a registry may never change a graph, a ranking or an
// allocation — it only receives the builds' tallies — and both runs equal
// the oracle.
func TestObservedAuctioneerIdenticalResults(t *testing.T) {
	p := testParams()
	for _, seed := range []int64{5, 17} {
		plain, _, _ := randomRound(t, p, 25, seed)
		watched, _, _ := randomRound(t, p, 25, seed)
		watched.SetObserver(obs.NewRegistry())

		if !plain.ConflictGraph().Equal(watched.ConflictGraph()) {
			t.Errorf("seed=%d: observed graph differs", seed)
		}
		if !watched.ConflictGraph().Equal(BuildConflictGraph(watched.locs)) {
			t.Errorf("seed=%d: observed graph differs from oracle", seed)
		}
		if !reflect.DeepEqual(plain.Rankings(), watched.Rankings()) {
			t.Errorf("seed=%d: observed rankings differ", seed)
		}
		a1, err := plain.AllocateAwards(rand.New(rand.NewSource(seed * 3)))
		if err != nil {
			t.Fatal(err)
		}
		a2, err := watched.AllocateAwards(rand.New(rand.NewSource(seed * 3)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a1, a2) {
			t.Errorf("seed=%d: observed allocation differs", seed)
		}
		want, _, err := oracleAwards(p, watched.locs, watched.bids, nil, rand.New(rand.NewSource(seed*3)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a2, want) {
			t.Errorf("seed=%d: observed allocation differs from oracle", seed)
		}
	}
}

// TestObserverCountsFlow sanity-checks the tallies a full interned round
// leaves behind: comparisons, rank builds, memo hits, and intern traffic
// must all be non-zero, and derived identities must hold.
func TestObserverCountsFlow(t *testing.T) {
	p := testParams()
	reg := obs.NewRegistry()
	auc, _, _ := randomRound(t, p, 25, 9)
	auc.SetObserver(reg)
	auc.ConflictGraph()
	if _, err := auc.Allocate(rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}

	get := func(name string) uint64 { return reg.Counter(name).Value() }
	if get("lppa_auctioneer_comparisons_total") == 0 {
		t.Error("no comparisons counted")
	}
	if got := get("lppa_auctioneer_rank_builds_total"); got != uint64(p.Channels) {
		t.Errorf("rank builds = %d, want %d (one per channel)", got, p.Channels)
	}
	if get("lppa_auctioneer_rank_memo_hits_total") == 0 {
		t.Error("no rank-memo hits counted")
	}
	total, hits, misses := get("lppa_intern_digests_total"), get("lppa_intern_hits_total"), get("lppa_intern_misses_total")
	if total == 0 || hits+misses != total {
		t.Errorf("intern identity broken: total=%d hits=%d misses=%d", total, hits, misses)
	}
	if rej, cmp := get("lppa_auctioneer_bloom_rejects_total"), get("lppa_auctioneer_comparisons_total"); rej > cmp {
		t.Errorf("bloom rejects %d exceed comparisons %d", rej, cmp)
	}
}
