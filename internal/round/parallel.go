package round

import (
	"fmt"
	"math/rand"
	"sync"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// encode is the bidder half of a round: every bidder's masked location
// and bid submission, with the submission's size in bytes. A bidder whose
// submission cannot be built gets an error in its slot instead; the
// failure excludes only that bidder.
//
// It draws one encoding seed per bidder from rng up front, in bidder
// order; bidder i's submissions then depend only on seeds[i], so the
// striped worker pool yields byte-identical results for every worker
// count. Shared samplers (bidders with equal policies) are safe:
// DisguiseSampler.Sample only reads the precomputed CDF.
//
// Location masking draws no randomness and runs under the ring's shared
// key, so locations are built up front with core.NewLocationSubmissions,
// which gives co-located bidders one shared immutable submission. Points
// are screened first, so an out-of-domain point cannot fail the batch.
func encode(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler, rng *rand.Rand, workers int,
) ([]*core.LocationSubmission, []*core.BidSubmission, []int, []error) {
	n := len(points)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	locs := make([]*core.LocationSubmission, n)
	subs := make([]*core.BidSubmission, n)
	bytes := make([]int, n)
	errs := make([]error, n)

	valid := make([]int, 0, n)
	pts := make([]geo.Point, 0, n)
	for i, pt := range points {
		if err := params.CheckPoint(pt); err != nil {
			errs[i] = fmt.Errorf("round: bidder %d location: %w", i, err)
			continue
		}
		valid = append(valid, i)
		pts = append(pts, pt)
	}
	vlocs, err := core.NewLocationSubmissions(params, ring, pts, workers)
	for k, i := range valid {
		if err != nil {
			errs[i] = fmt.Errorf("round: bidder %d location: %w", i, err)
			continue
		}
		locs[i] = vlocs[k]
	}

	encodeStripe := func(w, stride int) {
		// One bid encoder per stripe, built on its first bidder and reused
		// for the rest (core.BidEncoder.Rebind), so its digest tables fill
		// once per stripe instead of once per bidder; reuse never changes a
		// byte. A failed build leaves it nil, so every later bidder reports
		// the error a fresh build would.
		//
		// Likewise one rng per stripe, re-seeded for each bidder:
		// (*rand.Rand).Seed resets the source and the read position, so
		// bidder i draws exactly rand.New(rand.NewSource(seeds[i]))'s
		// stream without a new ~5 KB source, from a stripeSource
		// (stripe.go) that seeds in ~3.5 µs instead of math/rand's ~15.
		var enc *core.BidEncoder
		bidRng := rand.New(&stripeSource{})
		for i := w; i < n; i += stride {
			if errs[i] != nil {
				continue
			}
			bidRng.Seed(seeds[i])
			if enc == nil {
				built, err := core.NewBidEncoder(params, ring, samplers[i], bidRng)
				if err != nil {
					errs[i] = fmt.Errorf("round: bidder %d encoder: %w", i, err)
					continue
				}
				enc = built
			} else {
				enc.Rebind(samplers[i], bidRng)
			}
			sub, err := enc.Encode(bids[i], bidRng)
			if err != nil {
				errs[i] = fmt.Errorf("round: bidder %d bids: %w", i, err)
				continue
			}
			subs[i] = sub
			bytes[i] = core.SubmissionBytes(sub) + core.LocationBytes(locs[i])
		}
	}
	if workers <= 1 {
		encodeStripe(0, 1)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				encodeStripe(w, workers)
			}(w)
		}
		wg.Wait()
	}
	return locs, subs, bytes, errs
}
