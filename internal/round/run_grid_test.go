package round

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
)

// TestRunQuorumGridFaultFreeIdentical pins WithQuorum's no-op contract
// across the option grid: on fault-free inputs, adding a quorum (any
// threshold) must leave the round bit-identical to the same combination
// without it — for every charging rule and pipeline shape, across seeds.
func TestRunQuorumGridFaultFreeIdentical(t *testing.T) {
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	const n = 16

	pipelines := []struct {
		tag  string
		opts []Option
	}{
		{"serial", nil},
		{"workers1", []Option{WithWorkers(1)}},
		{"workers4", []Option{WithWorkers(4)}},
	}
	charging := []struct {
		tag  string
		opts []Option
	}{
		{"firstprice", nil},
		{"secondprice", []Option{WithSecondPrice()}},
	}
	quorums := []struct {
		tag  string
		opts []Option
	}{
		{"quorum-full", []Option{WithQuorum(n)}},
		{"quorum-half", []Option{WithQuorum(n / 2)}},
		{"quorum-one", []Option{WithQuorum(1)}},
	}

	for _, seed := range []int64{3, 17} {
		p, ring, pts, bids := parallelFixture(t, n, 2, seed)
		for _, pl := range pipelines {
			for _, ch := range charging {
				base := append(append([]Option(nil), pl.opts...), ch.opts...)
				run := func(extra ...Option) *Result {
					t.Helper()
					res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: pol,
						Rng: rand.New(rand.NewSource(seed * 7))}, append(append([]Option(nil), base...), extra...)...)
					if err != nil {
						t.Fatalf("%s/%s seed=%d: %v", pl.tag, ch.tag, seed, err)
					}
					return res
				}
				want := run()
				for _, q := range quorums {
					tag := pl.tag + "/" + ch.tag + "/" + q.tag
					got := run(q.opts...)
					sameResult(t, tag, want, got)
					if len(got.Excluded) != 0 {
						t.Errorf("%s seed=%d: fault-free round excluded %v", tag, seed, got.Excluded)
					}
				}
			}
		}
	}
}

// TestRunQuorumExcludesFailedBidder drives the degradation path: one
// bidder whose submission cannot be encoded (point outside the domain) is
// excluded under WithQuorum, the auction runs over the survivors, and the
// assignment indices still refer to the original population.
func TestRunQuorumExcludesFailedBidder(t *testing.T) {
	const n, bad = 12, 5
	p, ring, pts, bids := parallelFixture(t, n, 2, 9)
	pts[bad] = geo.Point{X: p.MaxX + 1, Y: 0} // unencodable
	pol := core.DisguisePolicy{P0: 1}

	for _, tc := range []struct {
		tag  string
		opts []Option
	}{
		{"serial", []Option{WithQuorum(n - 1)}},
		{"seeded", []Option{WithQuorum(n - 1), WithWorkers(3)}},
		{"secondprice", []Option{WithQuorum(n - 1), WithSecondPrice()}},
	} {
		res, err := Run(p, ring, Input{Points: pts, Bids: bids, Policy: pol,
			Rng: rand.New(rand.NewSource(11))}, tc.opts...)
		if err != nil {
			t.Fatalf("%s: %v", tc.tag, err)
		}
		if !reflect.DeepEqual(res.Excluded, []int{bad}) {
			t.Fatalf("%s: Excluded = %v, want [%d]", tc.tag, res.Excluded, bad)
		}
		if res.Outcome.Bidders != n {
			t.Errorf("%s: Outcome.Bidders = %d, want original population %d", tc.tag, res.Outcome.Bidders, n)
		}
		for _, as := range res.Outcome.Assignments {
			if as.Bidder == bad {
				t.Errorf("%s: excluded bidder %d won channel %d", tc.tag, bad, as.Channel)
			}
			if as.Bidder < 0 || as.Bidder >= n {
				t.Errorf("%s: assignment bidder %d outside original population", tc.tag, as.Bidder)
			}
		}
	}
}

// TestRunQuorumNotReached pins the typed failure: demanding more usable
// submissions than exist yields ErrQuorumNotReached, detectable with
// errors.Is.
func TestRunQuorumNotReached(t *testing.T) {
	const n = 6
	p, ring, pts, bids := parallelFixture(t, n, 2, 4)
	pts[0] = geo.Point{X: p.MaxX + 1, Y: 0}
	in := func() Input {
		return Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1},
			Rng: rand.New(rand.NewSource(2))}
	}

	if _, err := Run(p, ring, in(), WithQuorum(n)); !errors.Is(err, ErrQuorumNotReached) {
		t.Errorf("full quorum with one failed bidder: err = %v, want ErrQuorumNotReached", err)
	}
	// Without quorum mode the same input aborts with the encode error, not
	// the quorum sentinel: the legacy strict contract is untouched.
	if _, err := Run(p, ring, in()); err == nil || errors.Is(err, ErrQuorumNotReached) {
		t.Errorf("strict round: err = %v, want plain encode failure", err)
	}
}

// TestRunStragglerOptionValidation covers WithQuorum's error paths.
func TestRunStragglerOptionValidation(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 4, 2, 1)
	in := Input{Points: pts, Bids: bids, Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(1))}
	if _, err := Run(p, ring, in, WithQuorum(0)); err == nil {
		t.Error("zero quorum accepted")
	}
	if _, err := Run(p, ring, in, WithQuorum(99)); err == nil {
		t.Error("quorum beyond population accepted")
	}
}
