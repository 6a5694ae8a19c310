package round

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lppa/internal/core"
	"lppa/internal/dataset"
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
// themselves, not just downstream results, against a math/rand reference:
// bidder i on a fresh rand.New(rand.NewSource(seeds[i])) with a fresh
// bid encoder and location submission, where seeds are the encoding seeds
// encode draws from its rng in bidder order. At every width every bidder
// must match the reference byte for byte and in order: location digests,
// family digests, range digests with their pads, sealed ciphertexts and
// submission bytes. So encode's reseeded stripe source draws
// math/rand's stream, and no width changes a byte.
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
	seedRng := rand.New(rand.NewSource(99))
	wantLocs := make([]*core.LocationSubmission, len(points))
	wantSubs := make([]*core.BidSubmission, len(points))
	for i := range points {
		rng := rand.New(rand.NewSource(seedRng.Int63()))
		enc, err := core.NewBidEncoder(p, ring, samplers[i], rng)
		if err != nil {
			t.Fatal(err)
		}
		if wantSubs[i], err = enc.Encode(bids[i], rng); err != nil {
			t.Fatal(err)
		}
		if wantLocs[i], err = core.NewLocationSubmission(p, ring, points[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2, 5, 16} {
		locs, subs, bytesPer, errs := encode(p, ring, points, bids, samplers, rand.New(rand.NewSource(99)), workers)
		for i := range points {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if want := core.SubmissionBytes(wantSubs[i]) + core.LocationBytes(wantLocs[i]); bytesPer[i] != want {
				t.Errorf("workers=%d bidder %d: %d submission bytes, want %d", workers, i, bytesPer[i], want)
			}
			a, b := locs[i], wantLocs[i]
			if !sameDigests(a.XFamily, b.XFamily) || !sameDigests(a.YFamily, b.YFamily) ||
				!sameDigests(a.XRange, b.XRange) || !sameDigests(a.YRange, b.YRange) {
				t.Errorf("workers=%d bidder %d: location digests differ from the reference", workers, i)
			}
			if len(subs[i].Channels) != len(wantSubs[i].Channels) {
				t.Fatalf("workers=%d bidder %d: %d channels, want %d", workers, i, len(subs[i].Channels), len(wantSubs[i].Channels))
			}
			for r := range wantSubs[i].Channels {
				a, b := &subs[i].Channels[r], &wantSubs[i].Channels[r]
				if !sameDigests(a.Family, b.Family) {
					t.Errorf("workers=%d bidder %d channel %d: family digests differ from the reference", workers, i, r)
				}
				if !sameDigests(a.Range, b.Range) {
					t.Errorf("workers=%d bidder %d channel %d: range digests differ from the reference", workers, i, r)
				}
				if !bytes.Equal(a.Sealed, b.Sealed) {
					t.Errorf("workers=%d bidder %d channel %d: sealed ciphertexts differ from the reference", workers, i, r)
				}
			}
		}
	}
}

// sameDigests reports whether a and b hold the same digests in the same
// order.
func sameDigests(a, b mask.Set) bool { return slices.Equal(a.Digests(), b.Digests()) }

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

// BenchmarkEncode times encode itself, the bidder half of a round, at
// width 1 on the root encodeFixture's shape, round-urban's bidder side:
// N=3000 dataset.UrbanMix bidders on a 100×100 grid, 8 channels, a ring
// with rd=5 and cr=8, BMax 100, a quarter of the bids zero and disguise
// P0=0.6 with decay 0.95. Every bidder reseeds its stripe's source once.
func BenchmarkEncode(b *testing.B) {
	mix, grid := dataset.UrbanMix(), geo.Grid{Rows: 100, Cols: 100, SideMeters: 75_000}
	p := core.Params{Channels: 8, Lambda: mix.Lambda, MaxX: uint64(grid.Cols - 1), MaxY: uint64(grid.Rows - 1), BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("encode-bench"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := core.NewDisguiseSampler(core.DisguisePolicy{P0: 0.6, Decay: 0.95}, p.BMax)
	if err != nil {
		b.Fatal(err)
	}
	const n = 3000
	rng := rand.New(rand.NewSource(12))
	pts := mix.Points(grid, n, rng)
	bids := make([][]uint64, n)
	samplers := make([]*core.DisguiseSampler, n)
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(4) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
		samplers[i] = sampler
	}
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		_, _, _, errs := encode(p, ring, pts, bids, samplers, rand.New(rand.NewSource(12)), 1)
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
