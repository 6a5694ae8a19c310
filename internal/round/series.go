package round

import (
	"fmt"
	"math/rand"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/ttp"
)

// Series runs several consecutive private auctions against one TTP with
// batched charging (section V.C.2 end to end): each round allocates
// immediately, but winners' charges settle only when the batcher opens a
// TTP window — so results finalize in batches, trading settlement latency
// for TTP online time.
type Series struct {
	params  core.Params
	trusted *ttp.TTP
	batcher *Batcher

	pending map[int]*pendingRound
	nextID  int
}

type pendingRound struct {
	assignments []auction.Assignment
	bidders     int
}

// SeriesRound is one settled auction. Voided and Violations count as in
// Result.
type SeriesRound struct {
	RoundID    int
	Outcome    *auction.Outcome
	Voided     int
	Violations int
}

// NewSeries builds a multi-auction runner. maxRequests/maxRounds bound the
// TTP batching window (see Batcher).
func NewSeries(params core.Params, ring *mask.KeyRing, maxRequests, maxRounds int, rng *rand.Rand) (*Series, error) {
	trusted, err := ttp.FromRing(params, ring, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	s := &Series{
		params:  params,
		trusted: trusted,
		pending: make(map[int]*pendingRound),
	}
	s.batcher, err = NewBatcher(maxRequests, maxRounds, trusted.ProcessBatch)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Run executes one auction round: allocation completes immediately, the
// charge requests join the batch queue, and any rounds whose settlement
// the queue released are returned (possibly none, possibly several,
// possibly including this round). rng is consumed as Run consumes
// Input.Rng, without the TTP draw NewSeries made: one encoding seed per
// bidder, then the allocator.
func (s *Series) Run(ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	policy core.DisguisePolicy, rng *rand.Rand) ([]SeriesRound, error) {
	n := len(points)
	if n == 0 || len(bids) != n {
		return nil, fmt.Errorf("round: series round needs matching points and bids")
	}
	samplers, err := buildSamplers(n, policy, nil, s.params.BMax)
	if err != nil {
		return nil, err
	}
	locs, subs, _, errs := encode(s.params, ring, points, bids, samplers, rng, 1)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	auc, err := core.NewAuctioneer(s.params, locs, subs)
	if err != nil {
		return nil, err
	}
	assignments, err := auc.Allocate(rng)
	if err != nil {
		return nil, err
	}
	id := s.nextID
	s.nextID++
	s.pending[id] = &pendingRound{assignments: assignments, bidders: n}
	return s.settle(s.batcher.Add(id, auc.ChargeRequests(assignments))), nil
}

// Flush settles every queued round in one final TTP window.
func (s *Series) Flush() []SeriesRound {
	return s.settle(s.batcher.Flush())
}

// Stats exposes the batching counters.
func (s *Series) Stats() BatchStats { return s.batcher.Stats() }

func (s *Series) settle(settlements []Settlement) []SeriesRound {
	var out []SeriesRound
	for _, st := range settlements {
		p, ok := s.pending[st.RoundID]
		if !ok {
			continue
		}
		delete(s.pending, st.RoundID)
		res := Result{Outcome: &auction.Outcome{
			Assignments: p.assignments,
			Charges:     make([]uint64, len(p.assignments)),
			Bidders:     p.bidders,
		}}
		tallyCharges(&res, st.Results)
		out = append(out, SeriesRound{RoundID: st.RoundID, Outcome: res.Outcome, Voided: res.Voided, Violations: res.Violations})
	}
	return out
}
