package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/conflict"
	"lppa/internal/core"
)

// TestRunPrivateOptsRepresentationInvariance pins the end-to-end soundness
// of the auctioneer's one execution path: for several seeds and worker
// counts the full private round (outcome, charges, voids, conflict graph,
// rankings, transcript bytes) is identical, and its conflict graph equals
// the plaintext truth over the bidders' true points.
func TestRunPrivateOptsRepresentationInvariance(t *testing.T) {
	policy := core.DisguisePolicy{P0: 0.6, Decay: 0.9}
	for _, seed := range []int64{2, 13, 37} {
		p, ring, points, bids := parallelFixture(t, 25, 2, seed)
		in := func() Input {
			return Input{Points: points, Bids: bids, Policy: policy, Rng: rand.New(rand.NewSource(seed * 101))}
		}
		base, err := Run(p, ring, in(), WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		truth := conflict.BuildPlain(points, p.Lambda)
		for _, workers := range []int{1, 2, 4} {
			got, err := Run(p, ring, in(), WithWorkers(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Outcome, base.Outcome) {
				t.Errorf("seed=%d workers=%d: outcome differs", seed, workers)
			}
			if got.Voided != base.Voided || got.Violations != base.Violations ||
				got.SubmissionBytes != base.SubmissionBytes {
				t.Errorf("seed=%d workers=%d: voids/violations/bytes differ", seed, workers)
			}
			g := got.Auctioneer.ConflictGraph()
			if !g.Equal(base.Auctioneer.ConflictGraph()) {
				t.Errorf("seed=%d workers=%d: conflict graphs differ", seed, workers)
			}
			if !reflect.DeepEqual(got.Auctioneer.Rankings(), base.Auctioneer.Rankings()) {
				t.Errorf("seed=%d workers=%d: rankings differ", seed, workers)
			}
			if !g.Equal(truth) {
				t.Errorf("seed=%d workers=%d: conflict graph differs from the plaintext truth", seed, workers)
			}
		}
	}
}
