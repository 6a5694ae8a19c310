package round

import (
	"math/rand"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
)

// columnRound runs one second-price round on a single channel whose
// bidders all conflict (λ = 5 on a 10×10 domain, points within one cell
// of each other), so the column's top bid wins alone.
func columnRound(t *testing.T, bids [][]uint64) *Result {
	t.Helper()
	p := core.Params{Channels: 1, Lambda: 5, MaxX: 9, MaxY: 9, BMax: 100}
	points := []geo.Point{{X: 1, Y: 1}, {X: 1, Y: 2}, {X: 2, Y: 1}}[:len(bids)]
	res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}, WithSecondPrice())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Fatalf("bids %v: violations = %d", bids, res.Violations)
	}
	return res
}

func TestRunPrivateSecondPriceChargesRunnerUp(t *testing.T) {
	// Single channel, full conflict: winner pays the second bid, verified
	// end to end through masking, allocation, and TTP unblinding.
	res := columnRound(t, [][]uint64{{60}, {90}, {75}})
	if len(res.Outcome.Assignments) != 1 {
		t.Fatalf("assignments = %v", res.Outcome.Assignments)
	}
	if res.Outcome.Assignments[0].Bidder != 1 {
		t.Fatalf("winner = %d, want 1", res.Outcome.Assignments[0].Bidder)
	}
	if res.Outcome.Charges[0] != 75 {
		t.Errorf("charge = %d, want runner-up bid 75", res.Outcome.Charges[0])
	}

	// A lone bidder has no runner-up: it wins the channel for free, as
	// the Vickrey price of a one-bidder column is zero.
	res = columnRound(t, [][]uint64{{40}})
	if len(res.Outcome.Assignments) != 1 || res.Outcome.Charges[0] != 0 || res.Outcome.Revenue != 0 {
		t.Errorf("lone bidder: assignments %v, charges %v, revenue %d; want one free win",
			res.Outcome.Assignments, res.Outcome.Charges, res.Outcome.Revenue)
	}
	if res.Outcome.SatisfiedBidders != 1 {
		t.Errorf("lone bidder: satisfied = %d, want 1", res.Outcome.SatisfiedBidders)
	}
}

// TestRunPrivateSecondPriceReducesShadingIncentive is the empirical
// truthfulness check on the private path: under second-price charging a
// winner cannot lower its price by shading its bid toward the runner-up —
// shading changes nothing until the bid crosses the runner-up, at which
// point the shader loses the channel.
func TestRunPrivateSecondPriceReducesShadingIncentive(t *testing.T) {
	const value = 90 // bidder 1's true valuation
	utility := func(bid uint64) int64 {
		res := columnRound(t, [][]uint64{{60}, {bid}, {75}})
		for i, a := range res.Outcome.Assignments {
			if a.Bidder == 1 {
				return value - int64(res.Outcome.Charges[i])
			}
		}
		return 0
	}
	truthful := utility(value)
	if truthful != 15 {
		t.Fatalf("truthful utility = %d, want 15 (value 90, runner-up 75)", truthful)
	}
	for _, tc := range []struct {
		shaded uint64
		want   int64
	}{{89, 15}, {80, 15}, {76, 15}, {74, 0}, {60, 0}} {
		got := utility(tc.shaded)
		if got > truthful {
			t.Fatalf("shading to %d raised utility %d above truthful %d", tc.shaded, got, truthful)
		}
		if got != tc.want {
			t.Errorf("shading to %d: utility %d, want %d", tc.shaded, got, tc.want)
		}
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
