package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
)

func randomPoints(p Params, n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: uint64(rng.Intn(int(p.MaxX + 1))), Y: uint64(rng.Intn(int(p.MaxY + 1)))}
	}
	return pts
}

func sameSet(a, b mask.Set) bool {
	if a.Len() != b.Len() {
		return false
	}
	for _, d := range a.Digests() {
		if !b.Contains(d) {
			return false
		}
	}
	return true
}

// TestNewLocationSubmissionsMatchesSerial asserts batch (and parallel)
// location encoding produces exactly the per-call submissions, for several
// populations, λ, and worker counts.
func TestNewLocationSubmissionsMatchesSerial(t *testing.T) {
	for _, lambda := range []uint64{1, 2, 5} {
		p := Params{Channels: 2, Lambda: lambda, MaxX: 99, MaxY: 99, BMax: 100}
		ring := testRing(t, p, 5, 8)
		for _, n := range []int{1, 7, 40} {
			pts := randomPoints(p, n, int64(lambda)*100+int64(n))
			want := make([]*LocationSubmission, n)
			for i, pt := range pts {
				var err error
				want[i], err = NewLocationSubmission(p, ring, pt)
				if err != nil {
					t.Fatal(err)
				}
			}
			for _, workers := range []int{1, 2, 3, 8} {
				got, err := NewLocationSubmissions(p, ring, pts, workers)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !sameSet(got[i].XFamily, want[i].XFamily) || !sameSet(got[i].YFamily, want[i].YFamily) ||
						!sameSet(got[i].XRange, want[i].XRange) || !sameSet(got[i].YRange, want[i].YRange) {
						t.Errorf("lambda=%d n=%d workers=%d: submission %d differs from serial", lambda, n, workers, i)
					}
				}
			}
		}
	}
}

// TestNewLocationSubmissionsRejectsOutOfDomain checks the parallel path
// reports per-bidder errors like the serial one.
func TestNewLocationSubmissionsRejectsOutOfDomain(t *testing.T) {
	p := Params{Channels: 1, Lambda: 1, MaxX: 9, MaxY: 9, BMax: 10}
	ring := testRing(t, p, 5, 8)
	pts := []geo.Point{{X: 1, Y: 1}, {X: 99, Y: 1}, {X: 2, Y: 2}, {X: 3, Y: 3}}
	for _, workers := range []int{1, 4} {
		if _, err := NewLocationSubmissions(p, ring, pts, workers); err == nil {
			t.Errorf("workers=%d: out-of-domain point accepted", workers)
		}
	}
}

// TestAuctioneerWorkersInvariant pins the fanned-out builds to the serial
// one bit for bit. For SetWorkers 1, 2, 3 and 8 — more workers than the
// 4 columns, and on the single-location stack more than the one group —
// over urban, rural and mixed populations and one single-location stack
// at n = 65 and 600, the conflict graph, the index shape, every column's
// rank and rankOrder, the validity-checked awards and voids, and every
// auctioneer counter equal the serial build's.
func TestAuctioneerWorkersInvariant(t *testing.T) {
	p := testParams()
	type build struct {
		graph           *conflict.Graph
		ix              mask.IndexStats
		rank, order     [][]int
		awarded, voided []auction.Assignment
		counters        map[string]uint64
	}
	for _, shape := range []string{"urban", "rural", "mixed", "point"} {
		for _, n := range []int{65, 600} {
			_, bids, locs, subs := oracleSubmissions(t, p, shape, n, int64(n), true)
			valid := func(i, r int) bool { return bids[i][r] > 0 }
			var serial build
			for _, workers := range []int{1, 2, 3, 8} {
				reg := obs.NewRegistry()
				auc, err := NewAuctioneer(p, locs, subs)
				if err != nil {
					t.Fatal(err)
				}
				auc.SetObserver(reg)
				auc.SetWorkers(workers)
				b := build{graph: auc.ConflictGraph(), ix: auc.ixStats}
				auc.BuildRankMemos()
				b.rank, b.order = auc.rank, auc.rankOrder
				if b.awarded, b.voided, err = auc.AllocateWithValidity(valid, rand.New(rand.NewSource(9))); err != nil {
					t.Fatal(err)
				}
				b.counters = reg.Snapshot().Counters
				if workers == 1 {
					serial = b
					continue
				}
				tag := fmt.Sprintf("%s/n=%d/workers=%d", shape, n, workers)
				if !b.graph.Equal(serial.graph) {
					t.Errorf("%s: conflict graph differs from the serial build", tag)
				}
				if b.ix != serial.ix {
					t.Errorf("%s: index %+v, serial %+v", tag, b.ix, serial.ix)
				}
				for r := range serial.rank {
					if !reflect.DeepEqual(b.rank[r], serial.rank[r]) || !reflect.DeepEqual(b.order[r], serial.order[r]) {
						t.Errorf("%s: column %d memo differs from the serial build", tag, r)
					}
				}
				if !reflect.DeepEqual(b.awarded, serial.awarded) || !reflect.DeepEqual(b.voided, serial.voided) {
					t.Errorf("%s: awards differ from the serial build", tag)
				}
				if !reflect.DeepEqual(b.counters, serial.counters) {
					t.Errorf("%s: counters %v, serial %v", tag, b.counters, serial.counters)
				}
			}
		}
	}
}

// TestGEMemoMatchesRawComparisons is the memo-correctness anchor: for
// every channel and every ordered pair, the rank-memo answer must equal
// the direct masked set intersection.
func TestGEMemoMatchesRawComparisons(t *testing.T) {
	p := testParams()
	for _, seed := range []int64{1, 2, 3} {
		auc, _, _ := randomRound(t, p, 20, seed)
		raw := oracleGE(auc.bids)
		for r := 0; r < p.Channels; r++ {
			for i := 0; i < auc.N(); i++ {
				for j := 0; j < auc.N(); j++ {
					if got, want := auc.GE(r, i, j), raw(r, i, j); got != want {
						t.Fatalf("seed=%d r=%d: GE(%d,%d) memo=%v raw=%v", seed, r, i, j, got, want)
					}
				}
			}
		}
	}
}

// TestRankChannelMatchesLegacySort pins RankChannel — bidders sorted by
// (value rank, index) — to the oracle: a stable sort under the strict raw
// comparator.
func TestRankChannelMatchesLegacySort(t *testing.T) {
	p := testParams()
	auc, _, _ := randomRound(t, p, 25, 17)
	for r := 0; r < p.Channels; r++ {
		want := oracleRanking(auc.bids, r)
		if got := auc.RankChannel(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("channel %d: memo order %v, legacy order %v", r, got, want)
		}
	}
}

// TestRankChannelReturnsPrivateCopy guards the memo against caller
// mutation.
func TestRankChannelReturnsPrivateCopy(t *testing.T) {
	p := testParams()
	auc, _, _ := randomRound(t, p, 10, 23)
	first := auc.RankChannel(0)
	first[0], first[1] = first[1], first[0]
	second := auc.RankChannel(0)
	if second[0] == first[0] && second[1] == first[1] {
		t.Error("mutating a returned ranking corrupted the memo")
	}
}

// TestChargeRequestsPinned pins the lean batch assembly to the reference
// per-request construction: same attribution, same sealed bytes, same
// family members, and mutation isolation between requests.
func TestChargeRequestsPinned(t *testing.T) {
	p := testParams()
	auc, _, _ := randomRound(t, p, 12, 31)
	as, err := auc.Allocate(rand.New(rand.NewSource(32)))
	if err != nil {
		t.Fatal(err)
	}
	if len(as) == 0 {
		t.Fatal("no assignments")
	}
	reqs := auc.ChargeRequests(as)
	if len(reqs) != len(as) {
		t.Fatalf("%d requests for %d assignments", len(reqs), len(as))
	}
	for i, req := range reqs {
		cb := &auc.bids[as[i].Bidder].Channels[as[i].Channel]
		if req.Bidder != as[i].Bidder || req.Channel != as[i].Channel {
			t.Errorf("request %d misattributed", i)
		}
		if !bytes.Equal(req.Sealed, cb.Sealed) {
			t.Errorf("request %d sealed bytes differ from submission", i)
		}
		if len(req.Family) != cb.Family.Len() {
			t.Errorf("request %d family has %d digests, want %d", i, len(req.Family), cb.Family.Len())
		}
		for _, d := range req.Family {
			if !cb.Family.Contains(d) {
				t.Errorf("request %d family contains foreign digest %s", i, d)
			}
		}
		if req.RunnerUpSealed != nil {
			t.Errorf("request %d: first-price batch must not carry a runner-up ciphertext", i)
		}
	}
	// Appending to one request's slices must not leak into its neighbors
	// (full-capacity subslices of the shared backing arrays).
	if len(reqs) >= 2 {
		grown := append(reqs[0].Sealed, 0xFF)
		_ = grown
		if !bytes.Equal(reqs[1].Sealed, auc.bids[as[1].Bidder].Channels[as[1].Channel].Sealed) {
			t.Error("appending to request 0 corrupted request 1's sealed bytes")
		}
	}
}

// TestChargeRequestsSecondPricePinned does the same for the second-price
// batch, including runner-up ciphertexts.
func TestChargeRequestsSecondPricePinned(t *testing.T) {
	p := testParams()
	auc, _, _ := randomRound(t, p, 12, 41)
	awards, err := auc.AllocateAwards(rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if len(awards) == 0 {
		t.Fatal("no awards")
	}
	reqs := auc.ChargeRequestsSecondPrice(awards)
	if len(reqs) != len(awards) {
		t.Fatalf("%d requests for %d awards", len(reqs), len(awards))
	}
	sawRunnerUp := false
	for i, req := range reqs {
		aw := awards[i]
		cb := &auc.bids[aw.Bidder].Channels[aw.Channel]
		if req.Bidder != aw.Bidder || req.Channel != aw.Channel {
			t.Errorf("request %d misattributed", i)
		}
		if !bytes.Equal(req.Sealed, cb.Sealed) {
			t.Errorf("request %d sealed bytes differ from submission", i)
		}
		if aw.RunnerUp >= 0 {
			sawRunnerUp = true
			want := auc.bids[aw.RunnerUp].Channels[aw.Channel].Sealed
			if !bytes.Equal(req.RunnerUpSealed, want) {
				t.Errorf("request %d runner-up sealed bytes differ", i)
			}
		} else if req.RunnerUpSealed != nil {
			t.Errorf("request %d has runner-up ciphertext without a runner-up", i)
		}
	}
	if !sawRunnerUp {
		t.Log("no award had a runner-up; runner-up path not exercised by this seed")
	}
}
