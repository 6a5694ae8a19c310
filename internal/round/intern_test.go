package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
)

// TestRunPrivateOptsRepresentationInvariance pins the end-to-end soundness
// of the auctioneer's one execution path: for several seeds and every
// combination of worker count and tiling — the implicit single tile,
// WithShards(1) and WithShards(4) — the full private round (outcome,
// charges, voids, conflict graph, rankings, transcript bytes) is
// identical, and its conflict graph equals the all-pairs oracle over the
// plain mask.Set submissions.
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
		for _, workers := range []int{1, 2, 4} {
			for _, shards := range []int{0, 1, 4} {
				opts := []Option{WithWorkers(workers)}
				if shards > 0 {
					opts = append(opts, WithShards(shards))
				}
				got, err := Run(p, ring, in(), opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Outcome, base.Outcome) {
					t.Errorf("seed=%d workers=%d shards=%d: outcome differs", seed, workers, shards)
				}
				if got.Voided != base.Voided || got.Violations != base.Violations ||
					got.SubmissionBytes != base.SubmissionBytes {
					t.Errorf("seed=%d workers=%d shards=%d: voids/violations/bytes differ", seed, workers, shards)
				}
				g := got.Auctioneer.ConflictGraph()
				if !g.Equal(base.Auctioneer.ConflictGraph()) {
					t.Errorf("seed=%d workers=%d shards=%d: conflict graphs differ", seed, workers, shards)
				}
				if !reflect.DeepEqual(got.Auctioneer.Rankings(), base.Auctioneer.Rankings()) {
					t.Errorf("seed=%d workers=%d shards=%d: rankings differ", seed, workers, shards)
				}
				locs, err := core.NewLocationSubmissions(p, ring, points, 1)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(core.BuildConflictGraph(locs)) {
					t.Errorf("seed=%d workers=%d shards=%d: conflict graph differs from oracle", seed, workers, shards)
				}
			}
		}
	}
}
