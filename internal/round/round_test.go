package round

import (
	"math/rand"
	"testing"

	"lppa/internal/auction"
	"lppa/internal/conflict"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

func params() core.Params {
	return core.Params{Channels: 6, Lambda: 3, MaxX: 99, MaxY: 99, BMax: 100}
}

func ring(t *testing.T, p core.Params) *mask.KeyRing {
	t.Helper()
	r, err := mask.DeriveKeyRing([]byte("round-test"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// population builds n bidders with ~2/3 positive bids per channel.
func population(p core.Params, n int, seed int64) ([]geo.Point, [][]uint64) {
	rng := rand.New(rand.NewSource(seed))
	points := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(int(p.MaxX + 1))), Y: uint64(rng.Intn(int(p.MaxY + 1)))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(3) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
	}
	return points, bids
}

func TestRunPrivateHonestRound(t *testing.T) {
	p := params()
	points, bids := population(p, 30, 1)
	res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d, want 0 for honest bidders", res.Violations)
	}
	if res.Outcome.Revenue == 0 {
		t.Error("zero revenue for a populated round")
	}
	if res.SubmissionBytes <= 0 {
		t.Error("transcript bytes not measured")
	}
	// Awards must respect the plaintext interference relation.
	plain := conflict.BuildPlain(points, p.Lambda)
	if err := auction.VerifyInterferenceFree(res.Outcome.Assignments, plain); err != nil {
		t.Error(err)
	}
	if err := auction.VerifyOneChannelPerBidder(res.Outcome.Assignments); err != nil {
		t.Error(err)
	}
}

func TestRunPrivateChargesAreTrueBids(t *testing.T) {
	p := params()
	points, bids := population(p, 20, 3)
	res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(4))})
	if err != nil {
		t.Fatal(err)
	}
	charged := 0
	for i, a := range res.Outcome.Assignments {
		c := res.Outcome.Charges[i]
		if c == 0 {
			continue // voided (true zero won an all-zero column)
		}
		charged++
		if c != bids[a.Bidder][a.Channel] {
			t.Fatalf("assignment %d: charge %d != first price %d", i, c, bids[a.Bidder][a.Channel])
		}
	}
	if charged == 0 {
		t.Error("no valid charges at all")
	}
}

func TestRunPrivateRevenueComparableToPlainBaseline(t *testing.T) {
	// With no disguising the private auction should earn revenue in the
	// same ballpark as the plaintext baseline (both run Algorithm 3; RNG
	// draws differ, and all-zero columns waste a row in the private run).
	p := params()
	var priv, plain float64
	for seed := int64(0); seed < 5; seed++ {
		points, bids := population(p, 40, 100+seed)
		res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(200 + seed))})
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunPlainBaseline(points, bids, p.Lambda, rand.New(rand.NewSource(300+seed)))
		if err != nil {
			t.Fatal(err)
		}
		priv += float64(res.Outcome.Revenue)
		plain += float64(out.Revenue)
	}
	ratio := priv / plain
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("undisguised private/plain revenue ratio = %.3f, want ≈1", ratio)
	}
}

func TestRunPrivateDisguiseDegradesPerformance(t *testing.T) {
	// Full disguising (p0 = 0) must void awards and cost revenue relative
	// to no disguising — the Fig. 5(e)(f) effect. The loss mechanism is a
	// void award deleting the winner's conflict neighbors' bids on that
	// channel, so the population must be dense enough to have conflicts.
	p := core.Params{Channels: 6, Lambda: 5, MaxX: 29, MaxY: 29, BMax: 100}
	var revHonest, revFull float64
	var voidedFull int
	for seed := int64(0); seed < 5; seed++ {
		points, bids := population(p, 40, 500+seed)
		honest, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(600 + seed))})
		if err != nil {
			t.Fatal(err)
		}
		full, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 0, Decay: 1}, Rng: rand.New(rand.NewSource(700 + seed))})
		if err != nil {
			t.Fatal(err)
		}
		revHonest += float64(honest.Outcome.Revenue)
		revFull += float64(full.Outcome.Revenue)
		voidedFull += full.Voided
	}
	if voidedFull == 0 {
		t.Error("full disguising voided no awards across 5 rounds")
	}
	if revFull >= revHonest {
		t.Errorf("full-disguise revenue %.0f not below honest revenue %.0f", revFull, revHonest)
	}
}

func TestRunPrivateWithPoliciesPerBidder(t *testing.T) {
	p := params()
	points, bids := population(p, 10, 7)
	policies := make([]core.DisguisePolicy, 10)
	for i := range policies {
		if i%2 == 0 {
			policies[i] = core.DisguisePolicy{P0: 1}
		} else {
			policies[i] = core.DisguisePolicy{P0: 0.2, Decay: 0.9}
		}
	}
	res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Rng: rand.New(rand.NewSource(8))}, WithPolicies(policies))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
}

func TestRunPrivateValidation(t *testing.T) {
	p := params()
	if _, err := Run(p, ring(t, p), Input{Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("empty round accepted")
	}
	points, bids := population(p, 3, 9)
	if _, err := Run(p, ring(t, p), Input{Points: points, Bids: bids[:2], Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("mismatched bids accepted")
	}
	if _, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Rng: rand.New(rand.NewSource(1))}, WithPolicies(make([]core.DisguisePolicy, 2))); err == nil {
		t.Error("mismatched policies accepted")
	}
}

func TestRunPlainBaseline(t *testing.T) {
	p := params()
	points, bids := population(p, 25, 10)
	out, err := RunPlainBaseline(points, bids, p.Lambda, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if out.Revenue == 0 || out.Satisfaction() <= 0 {
		t.Errorf("outcome = revenue %d satisfaction %f", out.Revenue, out.Satisfaction())
	}
	g := conflict.BuildPlain(points, p.Lambda)
	if err := auction.VerifyInterferenceFree(out.Assignments, g); err != nil {
		t.Error(err)
	}
}

func TestTranscriptFeedsAttacker(t *testing.T) {
	// The auctioneer's per-channel rankings must be permutations usable by
	// the t-largest attacker.
	p := params()
	points, bids := population(p, 15, 12)
	res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 0.5, Decay: 0.9}, Rng: rand.New(rand.NewSource(13))})
	if err != nil {
		t.Fatal(err)
	}
	ranks := res.Auctioneer.Rankings()
	if len(ranks) != p.Channels {
		t.Fatalf("rankings for %d channels", len(ranks))
	}
	for r, order := range ranks {
		if len(order) != 15 {
			t.Fatalf("channel %d ranking has %d entries", r, len(order))
		}
	}
}

func TestRunPrivateInteractiveValidation(t *testing.T) {
	p := params()
	if _, err := Run(p, ring(t, p), Input{Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}, WithInteractiveCharging()); err == nil {
		t.Error("empty round accepted")
	}
	points, bids := population(p, 3, 30)
	if _, err := Run(p, ring(t, p), Input{Points: points, Bids: bids[:2], Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}, WithInteractiveCharging()); err == nil {
		t.Error("mismatched bids accepted")
	}
	if _, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 0.5, Decay: -1}, Rng: rand.New(rand.NewSource(1))}, WithInteractiveCharging()); err == nil {
		t.Error("bad policy accepted")
	}
}

func TestRunPrivateInteractiveVoidsWithoutExpelling(t *testing.T) {
	// Under the interactive design, a fully-disguising population still
	// ends with every bidder served or exhausted; disguised zeros only
	// burn channels.
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 29, MaxY: 29, BMax: 100}
	points, bids := population(p, 15, 31)
	res, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 0, Decay: 1}, Rng: rand.New(rand.NewSource(32))}, WithInteractiveCharging())
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("violations = %d", res.Violations)
	}
	if res.Voided == 0 {
		t.Error("full disguising voided nothing under interactive TTP")
	}
	// All surviving charges are genuine first prices.
	for i, a := range res.Outcome.Assignments {
		if c := res.Outcome.Charges[i]; c != 0 && c != bids[a.Bidder][a.Channel] {
			t.Errorf("charge %d != bid %d", c, bids[a.Bidder][a.Channel])
		}
	}
}

func TestRunPrivateBadPolicyRejected(t *testing.T) {
	p := params()
	points, bids := population(p, 3, 33)
	if _, err := Run(p, ring(t, p), Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: -2}, Rng: rand.New(rand.NewSource(1))}); err == nil {
		t.Error("invalid policy accepted")
	}
}
