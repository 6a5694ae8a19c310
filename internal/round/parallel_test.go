package round

import (
	"math/rand"
	"reflect"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

func parallelFixture(t *testing.T, n int, lambda uint64, seed int64) (core.Params, *mask.KeyRing, []geo.Point, [][]uint64) {
	t.Helper()
	p := core.Params{Channels: 6, Lambda: lambda, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("round-parallel"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(4) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
	}
	return p, ring, points, bids
}

// TestRunPrivateOptsWorkerInvariance is the tentpole determinism test: for
// fixed seeds, every worker count, and Run with no option at all, must
// produce identical allocator output (assignments, charges, voids),
// identical transcript rankings, an identical conflict graph, and
// identical submission byte counts — across several populations, λ, and
// seeds.
func TestRunPrivateOptsWorkerInvariance(t *testing.T) {
	for _, tc := range []struct {
		n      int
		lambda uint64
	}{{8, 1}, {25, 2}, {40, 4}} {
		for _, seed := range []int64{1, 7, 42} {
			policy := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
			base, err := parallelRun(t, tc.n, tc.lambda, seed, policy, WithWorkers(1))
			if err != nil {
				t.Fatal(err)
			}
			// workers 0 stands for Run without WithWorkers.
			for _, workers := range []int{2, 3, 8, 0} {
				var opts []Option
				if workers > 0 {
					opts = append(opts, WithWorkers(workers))
				}
				got, err := parallelRun(t, tc.n, tc.lambda, seed, policy, opts...)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Outcome.Assignments, base.Outcome.Assignments) {
					t.Errorf("n=%d λ=%d seed=%d workers=%d: assignments differ from serial", tc.n, tc.lambda, seed, workers)
				}
				if !reflect.DeepEqual(got.Outcome.Charges, base.Outcome.Charges) {
					t.Errorf("n=%d λ=%d seed=%d workers=%d: charges differ", tc.n, tc.lambda, seed, workers)
				}
				if got.Outcome.Revenue != base.Outcome.Revenue || got.Voided != base.Voided || got.Violations != base.Violations {
					t.Errorf("n=%d λ=%d seed=%d workers=%d: revenue/voids/violations differ", tc.n, tc.lambda, seed, workers)
				}
				if got.SubmissionBytes != base.SubmissionBytes {
					t.Errorf("n=%d λ=%d seed=%d workers=%d: submission bytes %d vs %d", tc.n, tc.lambda, seed, workers, got.SubmissionBytes, base.SubmissionBytes)
				}
				if !got.Auctioneer.ConflictGraph().Equal(base.Auctioneer.ConflictGraph()) {
					t.Errorf("n=%d λ=%d seed=%d workers=%d: conflict graphs differ", tc.n, tc.lambda, seed, workers)
				}
				if !reflect.DeepEqual(got.Auctioneer.Rankings(), base.Auctioneer.Rankings()) {
					t.Errorf("n=%d λ=%d seed=%d workers=%d: rankings differ", tc.n, tc.lambda, seed, workers)
				}
			}
		}
	}
}

// parallelRun runs a round under opts over rebuilt identical inputs with a
// fresh rng per invocation, so runs cannot contaminate each other through
// shared rng state.
func parallelRun(t *testing.T, n int, lambda uint64, seed int64, policy core.DisguisePolicy, opts ...Option) (*Result, error) {
	p, ring, points, bids := parallelFixture(t, n, lambda, seed)
	return Run(p, ring, Input{Points: points, Bids: bids, Policy: policy, Rng: rand.New(rand.NewSource(seed * 1001))}, opts...)
}

// TestEncodeSubmissionsWorkerInvariance checks the encoded submissions
// themselves (not just downstream results) are byte-identical across
// worker counts: sealed ciphertexts equal, digest sets equal.
func TestEncodeSubmissionsWorkerInvariance(t *testing.T) {
	p, ring, points, bids := parallelFixture(t, 20, 2, 5)
	sampler, err := core.NewDisguiseSampler(core.DisguisePolicy{P0: 0.5, Decay: 0.9}, p.BMax)
	if err != nil {
		t.Fatal(err)
	}
	samplers := make([]*core.DisguiseSampler, len(points))
	for i := range samplers {
		samplers[i] = sampler
	}
	encodeAll := func(workers int) ([]*core.LocationSubmission, []*core.BidSubmission, int) {
		locs, subs, bytesPer, errs := encode(p, ring, points, bids, samplers, rand.New(rand.NewSource(99)), workers)
		bytes := 0
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			bytes += bytesPer[i]
		}
		return locs, subs, bytes
	}
	wantLocs, wantSubs, wantBytes := encodeAll(1)
	for _, workers := range []int{2, 5, 16} {
		locs, subs, bytes := encodeAll(workers)
		if bytes != wantBytes {
			t.Errorf("workers=%d: %d submission bytes, want %d", workers, bytes, wantBytes)
		}
		for i := range wantSubs {
			if !core.Conflicts(locs[i], wantLocs[i]) {
				// A submission always conflicts with itself (families
				// intersect own ranges); failure means the masked sets differ.
				t.Errorf("workers=%d: location submission %d differs", workers, i)
			}
			for r := range wantSubs[i].Channels {
				a, b := &subs[i].Channels[r], &wantSubs[i].Channels[r]
				if string(a.Sealed) != string(b.Sealed) {
					t.Errorf("workers=%d bidder %d channel %d: sealed ciphertexts differ", workers, i, r)
				}
				if a.Family.Len() != b.Family.Len() || a.Range.Len() != b.Range.Len() {
					t.Errorf("workers=%d bidder %d channel %d: set sizes differ", workers, i, r)
				}
				for _, d := range b.Family.Digests() {
					if !a.Family.Contains(d) {
						t.Errorf("workers=%d bidder %d channel %d: family digest missing", workers, i, r)
						break
					}
				}
				for _, d := range b.Range.Digests() {
					if !a.Range.Contains(d) {
						t.Errorf("workers=%d bidder %d channel %d: range digest missing", workers, i, r)
						break
					}
				}
			}
		}
	}
}

// TestRunPrivateOptsValidations mirrors the serial round's input checks
// on the seeded pipeline.
func TestRunPrivateOptsValidations(t *testing.T) {
	p, ring, points, bids := parallelFixture(t, 4, 2, 1)
	rng := rand.New(rand.NewSource(1))
	if _, err := Run(p, ring, Input{Policy: core.DefaultDisguise(), Rng: rng}, WithWorkers(0)); err == nil {
		t.Error("empty round accepted")
	}
	if _, err := Run(p, ring, Input{Points: points, Bids: bids[:2], Policy: core.DefaultDisguise(), Rng: rng}, WithWorkers(0)); err == nil {
		t.Error("mismatched points/bids accepted")
	}
}

// TestRunPrivateOptsOutcomeSanity checks the parallel round produces a
// structurally valid auction: assignments within range, conflict-free, and
// revenue consistent with charges.
func TestRunPrivateOptsOutcomeSanity(t *testing.T) {
	p, ring, points, bids := parallelFixture(t, 30, 2, 9)
	res, err := Run(p, ring, Input{Points: points, Bids: bids, Policy: core.DisguisePolicy{P0: 0.7, Decay: 0.95},
		Rng: rand.New(rand.NewSource(10))}, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	var sum uint64
	for _, c := range res.Outcome.Charges {
		sum += c
	}
	if sum != res.Outcome.Revenue {
		t.Errorf("revenue %d does not match charge sum %d", res.Outcome.Revenue, sum)
	}
	g := res.Auctioneer.ConflictGraph()
	for _, a := range res.Outcome.Assignments {
		if a.Bidder < 0 || a.Bidder >= len(points) || a.Channel < 0 || a.Channel >= p.Channels {
			t.Fatalf("assignment out of range: %+v", a)
		}
		for _, b := range res.Outcome.Assignments {
			if a != b && a.Channel == b.Channel && g.HasEdge(a.Bidder, b.Bidder) {
				t.Errorf("conflicting co-channel assignment: %+v vs %+v", a, b)
			}
		}
	}
}
