package ttp

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/prefix"
)

func params() core.Params {
	return core.Params{Channels: 3, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
}

func setup(t *testing.T, seed int64) (*TTP, *mask.KeyRing, *core.BidEncoder, *rand.Rand) {
	t.Helper()
	p := params()
	ring, err := mask.DeriveKeyRing([]byte("ttp-test"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	trusted, err := FromRing(p, ring, rand.New(rand.NewSource(seed+1)))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewBidEncoder(p, ring, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	return trusted, ring, enc, rng
}

// request builds a charge request for the bid on channel 0 of a submission.
func request(sub *core.BidSubmission, bidder int) core.ChargeRequest {
	cb := sub.Channels[0]
	return core.ChargeRequest{
		Bidder:  bidder,
		Channel: 0,
		Sealed:  cb.Sealed,
		Family:  cb.Family.Digests(),
	}
}

func TestProcessValidPositiveBid(t *testing.T) {
	trusted, _, enc, rng := setup(t, 1)
	p := params()
	for _, price := range []uint64{1, 37, p.BMax} {
		bids := make([]uint64, p.Channels)
		bids[0] = price
		sub, err := enc.Encode(bids, rng)
		if err != nil {
			t.Fatal(err)
		}
		res := trusted.Process(request(sub, 4))
		if res.Err != nil {
			t.Fatalf("price %d: %v", price, res.Err)
		}
		if !res.Valid {
			t.Fatalf("price %d marked invalid", price)
		}
		if res.Price != price {
			t.Fatalf("unblinded price = %d, want %d", res.Price, price)
		}
		if res.Bidder != 4 || res.Channel != 0 {
			t.Fatalf("result misattributed: %+v", res)
		}
	}
}

func TestProcessVoidsTrueZero(t *testing.T) {
	trusted, _, enc, rng := setup(t, 2)
	p := params()
	for trial := 0; trial < 20; trial++ {
		sub, err := enc.Encode(make([]uint64, p.Channels), rng)
		if err != nil {
			t.Fatal(err)
		}
		res := trusted.Process(request(sub, 0))
		if res.Valid {
			t.Fatal("zero bid charged as valid")
		}
		if res.Err != nil {
			t.Fatalf("zero bid flagged as violation: %v", res.Err)
		}
	}
}

func TestProcessVoidsDisguisedZero(t *testing.T) {
	// Disguised zeros carry a true sealed value in [0, rd]: TTP must void
	// them without charging.
	p := params()
	ring, err := mask.DeriveKeyRing([]byte("ttp-test"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := FromRing(p, ring, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sampler, err := core.NewDisguiseSampler(core.DisguisePolicy{P0: 0, Decay: 1}, p.BMax)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	enc, err := core.NewBidEncoder(p, ring, sampler, rng)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		sub, err := enc.Encode(make([]uint64, p.Channels), rng)
		if err != nil {
			t.Fatal(err)
		}
		res := trusted.Process(request(sub, 0))
		if res.Valid {
			t.Fatal("disguised zero charged as valid")
		}
		if res.Err != nil {
			t.Fatalf("disguised zero treated as violation: %v", res.Err)
		}
	}
}

func TestProcessRejectsTamperedCiphertext(t *testing.T) {
	trusted, _, enc, rng := setup(t, 5)
	p := params()
	bids := make([]uint64, p.Channels)
	bids[0] = 10
	sub, err := enc.Encode(bids, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := request(sub, 0)
	req.Sealed = append([]byte(nil), req.Sealed...)
	req.Sealed[0] ^= 0xff
	res := trusted.Process(req)
	if res.Err == nil || res.Valid {
		t.Error("tampered ciphertext not rejected")
	}
}

func TestProcessRejectsPricePrefixMismatch(t *testing.T) {
	// A cheating bidder pairs a low sealed price with a high masked
	// family. Simulate by swapping the family from a different encoding.
	trusted, _, enc, rng := setup(t, 6)
	p := params()
	low := make([]uint64, p.Channels)
	low[0] = 3
	high := make([]uint64, p.Channels)
	high[0] = 90
	subLow, err := enc.Encode(low, rng)
	if err != nil {
		t.Fatal(err)
	}
	subHigh, err := enc.Encode(high, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := core.ChargeRequest{
		Bidder:  0,
		Channel: 0,
		Sealed:  subLow.Channels[0].Sealed,            // pays 3
		Family:  subHigh.Channels[0].Family.Digests(), // auctioned as 90
	}
	res := trusted.Process(req)
	if res.Err == nil || res.Valid {
		t.Error("price/prefix mismatch not detected")
	}
}

func TestProcessRejectsBadChannel(t *testing.T) {
	trusted, _, enc, rng := setup(t, 7)
	p := params()
	bids := make([]uint64, p.Channels)
	bids[0] = 10
	sub, err := enc.Encode(bids, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := request(sub, 0)
	req.Channel = p.Channels + 5
	res := trusted.Process(req)
	if res.Err == nil {
		t.Error("bad channel accepted")
	}
}

func TestProcessBatchOrder(t *testing.T) {
	trusted, _, enc, rng := setup(t, 8)
	p := params()
	var reqs []core.ChargeRequest
	wantPrices := []uint64{10, 0, 55}
	for i, price := range wantPrices {
		bids := make([]uint64, p.Channels)
		bids[0] = price
		sub, err := enc.Encode(bids, rng)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, request(sub, i))
	}
	results := trusted.ProcessBatch(reqs)
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, res := range results {
		if res.Bidder != i {
			t.Errorf("result %d attributed to bidder %d", i, res.Bidder)
		}
		if wantPrices[i] == 0 {
			if res.Valid {
				t.Errorf("zero bid %d valid", i)
			}
		} else if !res.Valid || res.Price != wantPrices[i] {
			t.Errorf("result %d = %+v, want price %d", i, res, wantPrices[i])
		}
	}
}

// TestProcessBatchConcurrent runs one TTP's ProcessBatch from several
// goroutines at once, as the TTP server does for concurrent connections:
// each call's per-channel maskers must stay its own, and every call must
// return the serial verdicts.
func TestProcessBatchConcurrent(t *testing.T) {
	trusted, _, enc, rng := setup(t, 9)
	p := params()
	var reqs []core.ChargeRequest
	for i := 0; i < 30; i++ {
		bids := make([]uint64, p.Channels)
		for r := range bids {
			bids[r] = uint64(rng.Intn(int(p.BMax) + 1))
		}
		sub, err := enc.Encode(bids, rng)
		if err != nil {
			t.Fatal(err)
		}
		r := i % p.Channels
		cb := sub.Channels[r]
		reqs = append(reqs, core.ChargeRequest{Bidder: i, Channel: r, Sealed: cb.Sealed, Family: cb.Family.Digests()})
	}
	want := trusted.ProcessBatch(reqs)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, got := range trusted.ProcessBatch(reqs) {
				w := want[i]
				if got.Bidder != w.Bidder || got.Valid != w.Valid || got.Price != w.Price || (got.Err == nil) != (w.Err == nil) {
					t.Errorf("request %d: concurrent verdict %+v, serial %+v", i, got, w)
				}
			}
		}()
	}
	wg.Wait()
}

func TestNewDrawsFreshRing(t *testing.T) {
	p := params()
	fresh := func(seed int64) *TTP {
		t.Helper()
		ring, err := mask.NewKeyRing(p.Channels, 5, 8)
		if err != nil {
			t.Fatal(err)
		}
		trusted, err := FromRing(p, ring, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		if trusted.Ring() != ring {
			t.Fatal("TTP does not hold the ring it was given")
		}
		return trusted
	}
	a, b := fresh(1), fresh(2)
	if string(a.Ring().G0) == string(b.Ring().G0) {
		t.Error("two TTPs drew identical keys")
	}
	if a.Ring().RD != 5 || a.Ring().CR != 8 {
		t.Error("blinding parameters not stored")
	}
}

func TestFromRingValidatesParams(t *testing.T) {
	ring, err := mask.DeriveKeyRing([]byte("x"), 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	bad := core.Params{Channels: 0, Lambda: 1, MaxX: 1, MaxY: 1, BMax: 1}
	if _, err := FromRing(bad, ring, rand.New(rand.NewSource(1))); err == nil {
		t.Error("bad params accepted")
	}
}

// geo import is used indirectly through core's API in other packages; keep
// a reference here to document the protocol coordinate domain in one test.
func TestParamsCoordinateDomain(t *testing.T) {
	p := params()
	pt := geo.Point{X: p.MaxX, Y: p.MaxY}
	if pt.X != 99 || pt.Y != 99 {
		t.Fatal("unexpected domain")
	}
}

func TestValidateAward(t *testing.T) {
	trusted, _, enc, rng := setup(t, 9)
	p := params()
	pos := make([]uint64, p.Channels)
	pos[0] = 25
	sub, err := enc.Encode(pos, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !trusted.ValidateAward(sub.Channels[0].Sealed) {
		t.Error("positive bid judged invalid")
	}
	zero, err := enc.Encode(make([]uint64, p.Channels), rng)
	if err != nil {
		t.Fatal(err)
	}
	if trusted.ValidateAward(zero.Channels[0].Sealed) {
		t.Error("zero bid judged valid")
	}
	if trusted.ValidateAward([]byte("garbage")) {
		t.Error("garbage ciphertext judged valid")
	}
}

func TestProcessSecondPriceChargesRunnerUp(t *testing.T) {
	trusted, _, enc, rng := setup(t, 10)
	p := params()
	winner := make([]uint64, p.Channels)
	winner[0] = 80
	runner := make([]uint64, p.Channels)
	runner[0] = 35
	ws, err := enc.Encode(winner, rng)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := enc.Encode(runner, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := request(ws, 0)
	req.RunnerUpSealed = rs.Channels[0].Sealed
	res := trusted.Process(req)
	if res.Err != nil || !res.Valid {
		t.Fatalf("res = %+v", res)
	}
	if res.Price != 35 {
		t.Errorf("second price = %d, want 35", res.Price)
	}
}

func TestProcessSecondPriceZeroRunnerUpIsFree(t *testing.T) {
	trusted, _, enc, rng := setup(t, 11)
	p := params()
	winner := make([]uint64, p.Channels)
	winner[0] = 80
	ws, err := enc.Encode(winner, rng)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := enc.Encode(make([]uint64, p.Channels), rng)
	if err != nil {
		t.Fatal(err)
	}
	req := request(ws, 0)
	req.RunnerUpSealed = zs.Channels[0].Sealed
	res := trusted.Process(req)
	if !res.Valid || res.Price != 0 {
		t.Fatalf("res = %+v, want valid free win", res)
	}
}

// TestProcessSecondPriceNoRunnerUpIsFree pins the lone second-price
// winner: a SecondPrice request without a runner-up is charged zero, not
// its own bid, while the winner's own checks still bite — a zero that won
// is voided and a family that does not match the sealed price is a
// violation.
func TestProcessSecondPriceNoRunnerUpIsFree(t *testing.T) {
	trusted, _, enc, rng := setup(t, 17)
	p := params()
	winner := make([]uint64, p.Channels)
	winner[0] = 40
	ws, err := enc.Encode(winner, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := request(ws, 0)
	req.SecondPrice = true
	if res := trusted.Process(req); res.Err != nil || !res.Valid || res.Price != 0 {
		t.Fatalf("lone second-price winner: res = %+v, want a valid free win", res)
	}

	zs, err := enc.Encode(make([]uint64, p.Channels), rng)
	if err != nil {
		t.Fatal(err)
	}
	zero := request(zs, 0)
	zero.SecondPrice = true
	if res := trusted.Process(zero); res.Valid || res.Err != nil {
		t.Errorf("lone second-price zero: res = %+v, want voided", res)
	}

	other := make([]uint64, p.Channels)
	other[0] = 90
	foreign, err := enc.Encode(other, rng)
	if err != nil {
		t.Fatal(err)
	}
	tampered := req
	tampered.Family = foreign.Channels[0].Family.Digests()
	if res := trusted.Process(tampered); res.Err == nil || res.Valid {
		t.Errorf("lone second-price winner with a foreign family: res = %+v, want a violation", res)
	}
}

func TestProcessSecondPriceTamperedRunnerUp(t *testing.T) {
	trusted, _, enc, rng := setup(t, 12)
	p := params()
	winner := make([]uint64, p.Channels)
	winner[0] = 80
	ws, err := enc.Encode(winner, rng)
	if err != nil {
		t.Fatal(err)
	}
	req := request(ws, 0)
	req.RunnerUpSealed = []byte("not a ciphertext")
	res := trusted.Process(req)
	if res.Err == nil || res.Valid {
		t.Error("tampered runner-up accepted")
	}
}

func TestProcessRejectsOverBMaxPrice(t *testing.T) {
	// A cheating bidder seals a price above bmax: the TTP must flag it
	// even though the ciphertext authenticates.
	p := params()
	ring, err := mask.DeriveKeyRing([]byte("ttp-test"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	trusted, err := FromRing(p, ring, rand.New(rand.NewSource(13)))
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := mask.NewSealer(ring.GC, rand.New(rand.NewSource(14)))
	if err != nil {
		t.Fatal(err)
	}
	// scaled = cr·(bmax + rd + 3): displayed > rd + bmax.
	scaled := ring.CR * (p.BMax + ring.RD + 3)
	req := core.ChargeRequest{Bidder: 0, Channel: 0, Sealed: rogue.SealValue(scaled)}
	res := trusted.Process(req)
	if res.Err == nil || res.Valid {
		t.Error("over-bmax sealed price accepted")
	}
	// Same via the runner-up path.
	enc, err := core.NewBidEncoder(p, ring, nil, rand.New(rand.NewSource(15)))
	if err != nil {
		t.Fatal(err)
	}
	bids := make([]uint64, p.Channels)
	bids[0] = 10
	sub, err := enc.Encode(bids, rand.New(rand.NewSource(16)))
	if err != nil {
		t.Fatal(err)
	}
	req2 := request(sub, 0)
	req2.RunnerUpSealed = rogue.SealValue(scaled)
	res2 := trusted.Process(req2)
	if res2.Err == nil || res2.Valid {
		t.Error("over-bmax runner-up price accepted")
	}
}

// TestProcessBatchMemoizedMatchesProcess pins the batch's digest tables to
// per-request adjudication: channel 0 holds enough requests for a table
// and channel 1 too few, each mixing valid bids, true zeros, families
// swapped between bidders and truncated families, plus requests on
// channels out of range. Every batch verdict equals Process's.
func TestProcessBatchMemoizedMatchesProcess(t *testing.T) {
	trusted, _, enc, rng := setup(t, 10)
	p := params()
	w := prefix.WidthFor(p.ScaledMax(trusted.ring))
	perChannel := []int{1<<(w+1)/(w+1) + 1, 12}
	if !memoizes(perChannel[0], w) || memoizes(perChannel[1], w) {
		t.Fatalf("w=%d: %v requests should memoize channel 0 only", w, perChannel)
	}
	var reqs []core.ChargeRequest
	for r, count := range perChannel {
		for i := 0; i < count; i++ {
			bids := make([]uint64, p.Channels)
			if i%4 != 1 {
				bids[r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
			sub, err := enc.Encode(bids, rng)
			if err != nil {
				t.Fatal(err)
			}
			cb := sub.Channels[r]
			req := core.ChargeRequest{Bidder: len(reqs), Channel: r, Sealed: cb.Sealed, Family: cb.Family.Digests()}
			switch i % 8 {
			case 2: // another bidder's family
				if len(reqs) > 0 {
					req.Family = reqs[len(reqs)-1].Family
				}
			case 6: // a truncated family
				req.Family = req.Family[1:]
			}
			reqs = append(reqs, req)
		}
	}
	for _, ch := range []int{-1, p.Channels} {
		req := reqs[0]
		req.Channel = ch
		reqs = append(reqs, req)
	}

	valid, voided, failed := 0, 0, 0
	for i, got := range trusted.ProcessBatch(reqs) {
		want := trusted.Process(reqs[i])
		if got.Bidder != want.Bidder || got.Channel != want.Channel || got.Valid != want.Valid ||
			got.Price != want.Price || fmt.Sprint(got.Err) != fmt.Sprint(want.Err) {
			t.Errorf("request %d: batch verdict %+v, Process %+v", i, got, want)
		}
		switch {
		case got.Err != nil:
			failed++
		case got.Valid:
			valid++
		default:
			voided++
		}
	}
	if valid == 0 || voided == 0 || failed < 3 {
		t.Errorf("batch mix too narrow: %d valid, %d voided, %d failed", valid, voided, failed)
	}
}
