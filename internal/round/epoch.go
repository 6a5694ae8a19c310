package round

import (
	"fmt"

	"lppa/internal/core"
)

// EpochState carries the piece of a round that is population-independent
// across back-to-back epochs of the same auction: the auctioneer, reused
// via core.Auctioneer.Reset instead of reconstructed per round. One
// EpochState serves one sequence of rounds on one goroutine — it is not
// safe for concurrent Runs, and the Auctioneer in a Result produced under
// an EpochState is only valid until the next Run with the same state
// resets it.
type EpochState struct {
	auc    *core.Auctioneer
	params core.Params
}

// NewEpochState returns an empty state; the first Run with it populates
// the auctioneer.
func NewEpochState() *EpochState { return &EpochState{} }

// WithEpochState makes Run reuse st's auctioneer across calls instead of
// rebuilding it per round. Results are bit-identical to the same call
// without the option — reuse skips construction work, never changes what a
// population is awarded (the epoch equivalence grid pins this). Composes
// with every other option.
func WithEpochState(st *EpochState) Option {
	return func(c *runConfig) error {
		if st == nil {
			return fmt.Errorf("round: WithEpochState requires a non-nil state")
		}
		c.state = st
		return nil
	}
}

// auctioneer returns a ready auctioneer over the submissions: the
// state's reset one when params match, a fresh one otherwise (adopted
// into the state for the next epoch). A nil state is the one-shot path.
func (st *EpochState) auctioneer(params core.Params, locs []*core.LocationSubmission, bids []*core.BidSubmission) (*core.Auctioneer, error) {
	if st != nil && st.auc != nil && st.params == params {
		if err := st.auc.Reset(locs, bids); err != nil {
			return nil, err
		}
		return st.auc, nil
	}
	auc, err := core.NewAuctioneer(params, locs, bids)
	if err != nil {
		return nil, err
	}
	if st != nil {
		st.auc, st.params = auc, params
	}
	return auc, nil
}
