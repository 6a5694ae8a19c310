package transport

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/round"
	"lppa/internal/ttp"
)

// TestNetworkedRoundMatchesAuction pins the networked auctioneer to
// round.Auction. Eight seeded BidderClients take part in a round; their
// encoding is then replayed in process the way each client does it
// (core.NewLocationSubmission, then core.NewBidEncoder on the client's
// rng), and round.Auction runs over the replayed submissions, charged by a
// TTP derived from the same seed and allocating with the auctioneer's
// seed. Every bidder's Result, and the outcome's revenue, voids and
// exclusions, must equal what the network produced. The quorum case
// leaves one bidder out entirely, so the auctioneer's straggler deadline
// fires and the replay runs over the compacted set.
func TestNetworkedRoundMatchesAuction(t *testing.T) {
	p := testParams()
	const (
		n       = 8
		aucSeed = 13
	)
	ttpSeed := []byte("auction-parity")
	policy := core.DisguisePolicy{P0: 0.7, Decay: 0.9}
	rng := rand.New(rand.NewSource(5))
	points := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(int(p.MaxX) + 1)), Y: uint64(rng.Intn(int(p.MaxY) + 1))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(4) > 0 {
				bids[i][r] = 1 + uint64(rng.Int63n(int64(p.BMax)))
			}
		}
	}
	bidderRng := func(i int) *rand.Rand { return rand.New(rand.NewSource(int64(1000 + i))) }

	for _, tc := range []struct {
		name   string
		cfg    Config
		absent int // bidder that never submits; -1 for none
	}{
		{"first-price", Config{Logger: quietLogger()}, -1},
		{"second-price", Config{Logger: quietLogger(), SecondPrice: true}, -1},
		{"quorum", Config{Logger: quietLogger(), Quorum: n - 1, StragglerTimeout: 2 * time.Second}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ttpSrv, err := NewTTPServerWithConfig(p, ttpSeed, 3, 4, listen(t), Config{Logger: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			defer ttpSrv.Close()
			aucSrv, err := NewAuctioneerServerWithConfig(p, n, ttpSrv.Addr().String(), listen(t), aucSeed, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer aucSrv.Close()

			got := make([]*Result, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := 0; i < n; i++ {
				if i == tc.absent {
					continue
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					b := &BidderClient{ID: i, Params: p, Policy: policy,
						Timeout: 5 * time.Second, AwaitTimeout: 30 * time.Second}
					got[i], errs[i] = b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
						points[i], bids[i], bidderRng(i))
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("bidder %d: %v", i, err)
				}
			}
			outcome, err := aucSrv.Outcome()
			if err != nil {
				t.Fatal(err)
			}

			// The in-process replay, over the bidders that took part.
			ring, err := mask.DeriveKeyRing(ttpSeed, p.Channels, 3, 4)
			if err != nil {
				t.Fatal(err)
			}
			trusted, err := ttp.FromRing(p, ring, rand.New(rand.NewSource(int64(len(ttpSeed))+1)))
			if err != nil {
				t.Fatal(err)
			}
			sampler, err := core.NewDisguiseSampler(policy, p.BMax)
			if err != nil {
				t.Fatal(err)
			}
			var (
				ids      []int
				excluded []int
				locs     []*core.LocationSubmission
				subs     []*core.BidSubmission
			)
			for i := 0; i < n; i++ {
				if i == tc.absent {
					excluded = append(excluded, i)
					continue
				}
				loc, err := core.NewLocationSubmission(p, ring, points[i])
				if err != nil {
					t.Fatal(err)
				}
				brng := bidderRng(i)
				enc, err := core.NewBidEncoder(p, ring, sampler, brng)
				if err != nil {
					t.Fatal(err)
				}
				sub, err := enc.Encode(bids[i], brng)
				if err != nil {
					t.Fatal(err)
				}
				ids, locs, subs = append(ids, i), append(locs, loc), append(subs, sub)
			}
			var opts []round.Option
			if tc.cfg.SecondPrice {
				opts = append(opts, round.WithSecondPrice())
			}
			var verdicts []ttp.ChargeResult
			charge := func(reqs []core.ChargeRequest) ([]ttp.ChargeResult, error) {
				verdicts = trusted.ProcessBatch(reqs)
				return verdicts, nil
			}
			res, err := round.Auction(p, locs, subs, charge, rand.New(rand.NewSource(aucSeed)), nil, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Outcome.Assignments) == 0 {
				t.Fatal("replayed round awarded nothing; the fixture compares nothing")
			}

			want := make(map[int]Result, len(ids))
			for _, id := range ids {
				want[id] = Result{BidderID: id}
			}
			for k, as := range res.Outcome.Assignments {
				id := ids[as.Bidder]
				r := Result{BidderID: id, Channel: as.Channel, Voided: true}
				if v := verdicts[k]; v.Err == nil && v.Valid {
					r = Result{BidderID: id, Channel: as.Channel, Won: true, Price: v.Price}
				}
				want[id] = r
			}
			if len(outcome.Results) != len(ids) {
				t.Fatalf("outcome has %d results, want %d", len(outcome.Results), len(ids))
			}
			for k, id := range ids {
				if got[id] == nil || *got[id] != want[id] {
					t.Errorf("bidder %d told %+v, in-process Auction gives %+v", id, got[id], want[id])
				}
				if outcome.Results[k] != want[id] {
					t.Errorf("auctioneer recorded %+v for bidder %d, in-process Auction gives %+v", outcome.Results[k], id, want[id])
				}
			}
			if outcome.Revenue != res.Outcome.Revenue || outcome.Voided != res.Voided+res.Violations {
				t.Errorf("revenue %d voided %d, in-process Auction gives %d and %d",
					outcome.Revenue, outcome.Voided, res.Outcome.Revenue, res.Voided+res.Violations)
			}
			if !reflect.DeepEqual(outcome.Excluded, excluded) {
				t.Errorf("excluded %v, want %v", outcome.Excluded, excluded)
			}
		})
	}
}
