package round

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// encoder is one worker's bidder-side state: a location encoder and a bid
// encoder, each built on the worker's first bidder and reused for the rest
// (core.BidEncoder.Rebind), so their digest tables fill once per worker
// instead of once per bidder. Reuse never changes a byte. An encoder lives
// only as long as its encode stage, and a failed build leaves it empty, so
// every later bidder reports the same error a fresh build would.
type encoder struct {
	params core.Params
	ring   *mask.KeyRing
	loc    *core.LocationEncoder
	bid    *core.BidEncoder
}

func (e *encoder) location(i int, pt geo.Point) (*core.LocationSubmission, error) {
	if e.loc == nil {
		loc, err := core.NewLocationEncoder(e.params, e.ring)
		if err != nil {
			return nil, fmt.Errorf("round: bidder %d location: %w", i, err)
		}
		e.loc = loc
	}
	sub, err := e.loc.Encode(pt)
	if err != nil {
		return nil, fmt.Errorf("round: bidder %d location: %w", i, err)
	}
	return sub, nil
}

// bids encodes bidder i's bid vector with its disguise sampler and rng, as
// a fresh core.NewBidEncoder(params, ring, sampler, rng) would.
func (e *encoder) bids(i int, sampler *core.DisguiseSampler, bids []uint64, rng *rand.Rand) (*core.BidSubmission, error) {
	if e.bid == nil {
		enc, err := core.NewBidEncoder(e.params, e.ring, sampler, rng)
		if err != nil {
			return nil, fmt.Errorf("round: bidder %d encoder: %w", i, err)
		}
		e.bid = enc
	} else {
		e.bid.Rebind(sampler, rng)
	}
	sub, err := e.bid.Encode(bids, rng)
	if err != nil {
		return nil, fmt.Errorf("round: bidder %d bids: %w", i, err)
	}
	return sub, nil
}

// encodeSubmissions produces every bidder's location and bid submission.
// Encoding seeds are drawn from rng serially in bidder order before any
// goroutine starts; bidder i's submissions then depend only on seeds[i],
// so the striped worker pool yields byte-identical results for every
// worker count. Shared samplers (bidders with equal policies) are safe:
// DisguiseSampler.Sample only reads the precomputed CDF.
func encodeSubmissions(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler, rng *rand.Rand, workers int) ([]*core.LocationSubmission, []*core.BidSubmission, int, error) {
	n := len(points)
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	// Location masking draws no randomness; the parallel batch builder is
	// output-identical to per-bidder calls.
	locs, err := core.NewLocationSubmissions(params, ring, points, workers)
	if err != nil {
		return nil, nil, 0, err
	}

	subs := make([]*core.BidSubmission, n)
	bytesPer := make([]int, n)
	errs := make([]error, n)
	encodeStripe := func(w, stride int) {
		enc := &encoder{params: params, ring: ring}
		for i := w; i < n; i += stride {
			sub, err := enc.bids(i, samplers[i], bids[i], rand.New(rand.NewSource(seeds[i])))
			if err != nil {
				errs[i] = err
				continue
			}
			subs[i] = sub
			bytesPer[i] = core.SubmissionBytes(sub) + core.LocationBytes(locs[i])
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
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, err
		}
	}
	bytesTotal := 0
	for _, b := range bytesPer {
		bytesTotal += b
	}
	return locs, subs, bytesTotal, nil
}

// encodeTolerant is the quorum-mode encoder: per-bidder failures are
// recorded instead of aborting, and — on the seeded pipeline — bidders
// that miss the straggler deadline are abandoned (their goroutines finish
// into a discarded collector slot). Fault-free output is bit-identical to
// encodeSerial (seeded=false) or encodeSubmissions (seeded=true): the rng
// is consumed in exactly the same order, and the per-bidder location
// builder produces the same bytes as the batch builder (location masking
// draws no randomness).
func encodeTolerant(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler, rng *rand.Rand, workers int, seeded bool, deadline time.Duration,
) ([]*core.LocationSubmission, []*core.BidSubmission, []int, []error) {
	n := len(points)
	locs := make([]*core.LocationSubmission, n)
	subs := make([]*core.BidSubmission, n)
	bytesPer := make([]int, n)
	errs := make([]error, n)

	encodeOne := func(enc *encoder, i int, rngI *rand.Rand) (*core.LocationSubmission, *core.BidSubmission, int, error) {
		loc, err := enc.location(i, points[i])
		if err != nil {
			return nil, nil, 0, err
		}
		sub, err := enc.bids(i, samplers[i], bids[i], rngI)
		if err != nil {
			return nil, nil, 0, err
		}
		return loc, sub, core.SubmissionBytes(sub) + core.LocationBytes(loc), nil
	}

	if !seeded {
		// Serial shape: one rng threaded through bidders in index order,
		// exactly like encodeSerial, but a failed bidder is skipped
		// instead of aborting the population. No deadline here — Run
		// rejects WithStragglerTimeout on the serial pipeline.
		enc := &encoder{params: params, ring: ring}
		for i := 0; i < n; i++ {
			locs[i], subs[i], bytesPer[i], errs[i] = encodeOne(enc, i, rng)
		}
		return locs, subs, bytesPer, errs
	}

	// Seeded shape: the round rng is consumed serially up front (one seed
	// per bidder), after which every bidder encodes independently. Results
	// land in the collector under its lock so a deadline snapshot never
	// races a straggling worker.
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	var (
		mu       sync.Mutex
		done     = make([]bool, n)
		arrivals = make(chan struct{}, n)
	)
	for w := 0; w < workers; w++ {
		go func(w int) {
			enc := &encoder{params: params, ring: ring}
			for i := w; i < n; i += workers {
				loc, sub, b, err := encodeOne(enc, i, rand.New(rand.NewSource(seeds[i])))
				mu.Lock()
				locs[i], subs[i], bytesPer[i], errs[i] = loc, sub, b, err
				done[i] = true
				mu.Unlock()
				arrivals <- struct{}{}
			}
		}(w)
	}
	var timeout <-chan time.Time
	if deadline > 0 {
		timeout = time.After(deadline)
	}
	landed := 0
collect:
	for landed < n {
		select {
		case <-arrivals:
			landed++
		case <-timeout:
			break collect
		}
	}
	// Snapshot under the lock: stragglers keep encoding into the shared
	// slices afterwards, but this round only ever reads the copies.
	mu.Lock()
	defer mu.Unlock()
	clocs := make([]*core.LocationSubmission, n)
	csubs := make([]*core.BidSubmission, n)
	cbytes := make([]int, n)
	cerrs := make([]error, n)
	for i := 0; i < n; i++ {
		if !done[i] {
			cerrs[i] = fmt.Errorf("round: bidder %d missed straggler deadline %v", i, deadline)
			continue
		}
		clocs[i], csubs[i], cbytes[i], cerrs[i] = locs[i], subs[i], bytesPer[i], errs[i]
	}
	return clocs, csubs, cbytes, cerrs
}
