package round

import (
	"math/rand"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
)

func TestRunPrivateSecondPriceChargesRunnerUp(t *testing.T) {
	// Single channel, full conflict: winner pays the second bid, verified
	// end to end through masking, allocation, and TTP unblinding.
	p := core.Params{Channels: 1, Lambda: 5, MaxX: 9, MaxY: 9, BMax: 100}
	ring := ring(t, p)
	points := []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 1}}
	bids := [][]uint64{{60}, {90}, {75}}
	res, err := Run(p, ring, Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}, WithSecondPrice())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
	if len(res.Outcome.Assignments) != 1 {
		t.Fatalf("assignments = %v", res.Outcome.Assignments)
	}
	if res.Outcome.Assignments[0].Bidder != 1 {
		t.Fatalf("winner = %d, want 1", res.Outcome.Assignments[0].Bidder)
	}
	if res.Outcome.Charges[0] != 75 {
		t.Errorf("charge = %d, want runner-up bid 75", res.Outcome.Charges[0])
	}
}

func TestRunPrivateSecondPricePaymentsBounded(t *testing.T) {
	// Individual rationality through the full private pipeline: no winner
	// pays above its own bid.
	p := params()
	points, bids := population(p, 25, 20)
	res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 0.8, Decay: 0.9}, Rng: rand.New(rand.NewSource(21))}, WithSecondPrice())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("violations = %d", res.Violations)
	}
	for i, a := range res.Outcome.Assignments {
		if c := res.Outcome.Charges[i]; c > bids[a.Bidder][a.Channel] && bids[a.Bidder][a.Channel] > 0 {
			t.Fatalf("winner %d pays %d above its bid %d", a.Bidder, c, bids[a.Bidder][a.Channel])
		}
	}
}

func TestRunPrivateSecondPriceRevenueAtMostFirstPrice(t *testing.T) {
	p := params()
	var first, second float64
	for seed := int64(0); seed < 4; seed++ {
		points, bids := population(p, 30, 800+seed)
		fp, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(900 + seed))})
		if err != nil {
			t.Fatal(err)
		}
		sp, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(900 + seed))}, WithSecondPrice())
		if err != nil {
			t.Fatal(err)
		}
		first += float64(fp.Outcome.Revenue)
		second += float64(sp.Outcome.Revenue)
	}
	if second > first {
		t.Errorf("aggregate second-price revenue %.0f exceeds first-price %.0f", second, first)
	}
	if second == 0 {
		t.Error("second-price revenue zero across all rounds")
	}
}

func TestRunPrivateSecondPriceValidation(t *testing.T) {
	p := params()
	if _, err := Run(p, ring(t, p), Input{Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}, WithSecondPrice()); err == nil {
		t.Error("empty round accepted")
	}
}
