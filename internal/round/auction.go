package round

import (
	"fmt"
	"math/rand"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/obs"
	"lppa/internal/ttp"
)

// PhaseMetric is the histogram family a round's phase wall times land in,
// one series per phase (obs.Telemetry.Start).
const PhaseMetric = "lppa_round_phase_seconds"

// Charger settles one batch of charge requests with the TTP and returns
// its verdicts in request order. The in-process TTP's ProcessBatch is one;
// the networked auctioneer's TTP client is the other, so a charger may
// fail, and its verdicts are outside input that Auction never indexes
// past.
type Charger func(reqs []core.ChargeRequest) ([]ttp.ChargeResult, error)

// Auction is the auctioneer's half of a round (the paper's section V): it
// builds the conflict graph over the masked location submissions,
// allocates channels over the masked bids (Algorithm 3), and settles the
// winners through charge. It takes no key ring and no plaintext, so the
// trust boundary is a property of its signature. Run is the bidder half
// followed by Auction; the networked auctioneer (internal/transport) calls
// Auction over the submissions it collected.
//
// rng drives the allocator's channel shuffles and tie breaks. phases
// receives the conflict_graph, allocate and charge boundaries and is
// stopped when Auction returns; nil reports nothing. Auction reads the
// charging option (WithSecondPrice) and WithTelemetry's Metrics; the
// rest shape Run's bidder half, and the caller owns the run's lifecycle
// through phases. Interactive charging needs the in-process TTP's
// validity oracle, so it is Run's alone and Auction rejects it.
//
// Outcome.Bidders and the assignment indices count the given submissions.
func Auction(params core.Params, locs []*core.LocationSubmission, subs []*core.BidSubmission,
	charge Charger, rng *rand.Rand, phases *obs.Phases, opts ...Option) (*Result, error) {
	cfg, err := configure(opts)
	if err == nil && cfg.interactive {
		err = fmt.Errorf("round: interactive charging needs the in-process TTP (use Run)")
	}
	if err != nil {
		phases.Stop()
		return nil, err
	}
	return auctionRound(params, locs, subs, charge, nil, rng, phases, &cfg)
}

// auctionRound is Auction with an optional validity oracle: a non-nil
// validate selects interactive charging.
func auctionRound(params core.Params, locs []*core.LocationSubmission, subs []*core.BidSubmission,
	charge Charger, validate func(sealed []byte) bool, rng *rand.Rand, ph *obs.Phases, cfg *runConfig) (*Result, error) {
	defer ph.Stop()
	auc, err := core.NewAuctioneer(params, locs, subs)
	if err != nil {
		return nil, err
	}
	auc.SetObserver(cfg.tel.Metrics)

	// The graph build is rng-free, so forcing it here (instead of letting
	// the allocator build it lazily) changes nothing except giving the
	// phase its own wall-time series.
	ph.Phase("conflict_graph")
	auc.ConflictGraph()

	ph.Phase("allocate")
	res := &Result{Auctioneer: auc}
	var (
		assignments []auction.Assignment
		awards      []auction.Award
	)
	switch {
	case cfg.secondPrice:
		if awards, err = auc.AllocateAwards(rng); err != nil {
			return nil, err
		}
		assignments = make([]auction.Assignment, len(awards))
		for i, aw := range awards {
			assignments[i] = aw.Assignment
		}
	case validate != nil:
		// The validity oracle interleaves TTP round trips with the
		// allocation sweep, so their cost lands in the allocate phase —
		// that is the interactive design's point.
		var voided []auction.Assignment
		assignments, voided, err = auc.AllocateWithValidity(func(i, r int) bool {
			return validate(auc.SealedBid(i, r))
		}, rng)
		if err != nil {
			return nil, err
		}
		res.Voided = len(voided)
	default:
		// Batch charging (the paper's section V.C.2): the allocation
		// completes blindly, then the TTP adjudicates all winners at once.
		// A zero that won is voided after the fact — the award already
		// consumed the bidder's row and the channel slot, which is exactly
		// the performance cost Fig. 5(e)(f) charts.
		if assignments, err = auc.Allocate(rng); err != nil {
			return nil, err
		}
	}
	res.Outcome = &auction.Outcome{
		Assignments: assignments,
		Charges:     make([]uint64, len(assignments)),
		Bidders:     len(subs),
	}

	ph.Phase("charge")
	var reqs []core.ChargeRequest
	if cfg.secondPrice {
		reqs = auc.ChargeRequestsSecondPrice(awards)
	} else {
		reqs = auc.ChargeRequests(assignments)
	}
	results, err := charge(reqs)
	if err != nil {
		return nil, err
	}
	tallyCharges(res, results)
	return res, nil
}

// tallyCharges folds the TTP's verdicts into the outcome: valid awards are
// charged and satisfied, invalid ones voided, errors counted as protocol
// violations. Verdicts pair with awards by position; one past the batch is
// ignored, and an award left without a verdict counts as a violation.
func tallyCharges(res *Result, results []ttp.ChargeResult) {
	out := res.Outcome
	for i := range out.Assignments {
		switch {
		case i >= len(results) || results[i].Err != nil:
			res.Violations++
		case !results[i].Valid:
			res.Voided++
		default:
			out.Charges[i] = results[i].Price
			out.Revenue += results[i].Price
			out.SatisfiedBidders++
		}
	}
}
