package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/round"
	"lppa/internal/transport"
	"lppa/internal/ttp"
)

// The protocol agreement every workload runs under: the load harness's
// 100×100 grid, 8 channels, bids in [1, 100] and the same disguise policy.
var grid = geo.Grid{Rows: 100, Cols: 100, SideMeters: 75_000}

const (
	channels = 8
	bmax     = 100
	// workers is the pipeline width every workload pins (WithWorkers), so
	// both sides of a comparison run the same parallelism on two cores.
	workers = 2
	// frameSample caps how many bidders per op the traced pass pushes
	// through the wire codec, so framing a 3000-bidder round stays cheap.
	frameSample = 32
)

var policy = core.DisguisePolicy{P0: 0.6, Decay: 0.95}

func paramsFor(lambda uint64) core.Params {
	return core.Params{
		Channels: channels, Lambda: lambda,
		MaxX: uint64(grid.Cols - 1), MaxY: uint64(grid.Rows - 1), BMax: bmax,
	}
}

// ringSeed is the key-ring derivation seed of one run; the networked TTP
// derives its ring from the same bytes.
func ringSeed(seed int64) []byte { return []byte("lppa-bench:" + strconv.FormatInt(seed, 10)) }

func keyRing(seed int64) (*mask.KeyRing, error) {
	return mask.DeriveKeyRing(ringSeed(seed), channels, 5, 8)
}

// Seed-stream salts: each consumer of the run seed draws from its own
// epoch.EpochSeed lane, so adding draws to one never shifts another.
const (
	saltPopulation = 0x706f70 // bidder placement
	saltBids       = 0x626964 // valuations
	saltSchedule   = 0x736368 // arrival/churn times
	saltBidder     = 0x627372 // networked bidders' own rngs
)

// bidsFor draws one bidder's valuations: a quarter of (bidder, channel)
// pairs sit out with a zero, the rest bid uniformly in [1, bmax].
func bidsFor(rng *rand.Rand) []uint64 {
	bids := make([]uint64, channels)
	for ch := range bids {
		if rng.Intn(4) > 0 {
			bids[ch] = 1 + uint64(rng.Int63n(bmax))
		}
	}
	return bids
}

// outcome is one round's awards in the form the transcript and the
// checks read: Assignments[i] was charged Charges[i], zero when voided.
type outcome struct {
	assignments []auction.Assignment
	charges     []uint64
	revenue     uint64
	satisfied   int
	voided      int
}

func fromResult(res *round.Result) outcome {
	return outcome{
		assignments: res.Outcome.Assignments,
		charges:     res.Outcome.Charges,
		revenue:     res.Outcome.Revenue,
		satisfied:   res.Outcome.SatisfiedBidders,
		voided:      res.Voided,
	}
}

// writeTranscript appends one op's award transcript in the load harness's
// line format (internal/load writeAward): the participating bidder ids,
// every award with its charge, and the totals. Equal transcripts are the
// determinism contract.
func writeTranscript(w io.Writer, op int, bidders []int, o outcome) {
	fmt.Fprintf(w, "epoch %d bidders %d [", op, len(bidders))
	for _, id := range bidders {
		fmt.Fprintf(w, " %d", id)
	}
	fmt.Fprint(w, " ]\n")
	for i, as := range o.assignments {
		fmt.Fprintf(w, "award bidder %d channel %d charge %d\n", bidders[as.Bidder], as.Channel, o.charges[i])
	}
	fmt.Fprintf(w, "revenue %d satisfied %d voided %d excluded []\n", o.revenue, o.satisfied, o.voided)
}

func opDigest(op int, bidders []int, o outcome) string {
	h := sha256.New()
	writeTranscript(h, op, bidders, o)
	return hex.EncodeToString(h.Sum(nil))
}

// gate accumulates the transcripts of the ops a run always executes
// (set-up and warm-up) into the digest BENCHMARK.json's seeds are pinned to.
type gate struct{ h hash.Hash }

func newGate() *gate { return &gate{h: sha256.New()} }

func (g *gate) add(op int, bidders []int, o outcome) { writeTranscript(g.h, op, bidders, o) }

func (g *gate) digest() string { return hex.EncodeToString(g.h.Sum(nil)) }

func identity(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

// checkOutcome checks one round's awards against the plaintext truth the
// auctioneer never saw: each bidder wins at most one channel, a valid award
// is charged exactly the winner's true bid (first price), a voided award
// hid a true zero, no two winners of one channel interfere, and the totals
// add up.
func checkOutcome(points []geo.Point, bids [][]uint64, lambda uint64, o outcome) error {
	if err := auction.VerifyOneChannelPerBidder(o.assignments); err != nil {
		return err
	}
	if len(o.charges) != len(o.assignments) {
		return fmt.Errorf("%d charges for %d awards", len(o.charges), len(o.assignments))
	}
	var revenue uint64
	satisfied, voided := 0, 0
	byChannel := make(map[int][]int)
	for i, as := range o.assignments {
		if as.Bidder < 0 || as.Bidder >= len(points) || as.Channel < 0 || as.Channel >= channels {
			return fmt.Errorf("award %d (bidder %d, channel %d) out of range", i, as.Bidder, as.Channel)
		}
		truth, charge := bids[as.Bidder][as.Channel], o.charges[i]
		switch {
		case charge == 0 && truth != 0:
			return fmt.Errorf("bidder %d voided on channel %d despite true bid %d", as.Bidder, as.Channel, truth)
		case charge != truth:
			return fmt.Errorf("bidder %d charged %d on channel %d, true bid %d", as.Bidder, charge, as.Channel, truth)
		case charge == 0:
			voided++
		default:
			satisfied++
			revenue += charge
		}
		for _, other := range byChannel[as.Channel] {
			if geo.Conflict(points[as.Bidder], points[other], lambda) {
				return fmt.Errorf("channel %d awarded to interfering bidders %d and %d", as.Channel, other, as.Bidder)
			}
		}
		byChannel[as.Channel] = append(byChannel[as.Channel], as.Bidder)
	}
	if revenue != o.revenue || satisfied != o.satisfied || voided != o.voided {
		return fmt.Errorf("totals revenue %d satisfied %d voided %d, awards add up to %d/%d/%d",
			o.revenue, o.satisfied, o.voided, revenue, satisfied, voided)
	}
	return nil
}

// plan fixes every random choice of one round. round.Run's seeded pipeline
// (WithWorkers) draws, from the round rng in this order, the TTP seed and
// one encoding seed per bidder, then hands the rest of the stream to the
// allocator; a networked round instead gives each bidder its own rng and
// the auctioneer a fresh one.
type plan struct {
	points      []geo.Point
	bids        [][]uint64
	ttpSeed     int64
	bidderSeeds []int64
	alloc       *rand.Rand
}

// seededPlan is the plan round.Run(..., WithWorkers(n)) follows for a
// round rng seeded with seed (internal/round run.go and parallel.go).
func seededPlan(points []geo.Point, bids [][]uint64, seed int64) plan {
	rng := rand.New(rand.NewSource(seed))
	p := plan{points: points, bids: bids, ttpSeed: rng.Int63(), bidderSeeds: make([]int64, len(points))}
	for i := range p.bidderSeeds {
		p.bidderSeeds[i] = rng.Int63()
	}
	p.alloc = rng
	return p
}

// tracedOp is what one decomposed round reports besides its spans.
type tracedOp struct {
	outcome outcome
	bidders int
	edges   int
	bytes   int   // masked submission bytes, all bidders
	frames  []int // sizes of the sampled submission frames
}

// decompose runs one round through the layers' public calls in the order
// round.Run makes them (internal/round run.go), with one span per layer
// under a "round" root, and returns the same outcome round.Run gives for
// the same plan. A sample of the submissions then goes through the wire
// codec under a separate "frames" root.
func decompose(tr *obs.Tracer, op int, params core.Params, ring *mask.KeyRing, p plan) (tracedOp, error) {
	root := tr.StartTrace("round", obs.L("op", strconv.Itoa(op)), obs.L("bidders", strconv.Itoa(len(p.points))))
	t, locs, subs, err := layers(tr, root.Context(), params, ring, p)
	root.End()
	if err != nil {
		return tracedOp{}, err
	}
	t.frames, err = frames(tr, params, locs, subs)
	return t, err
}

// layers is decompose's round: one span under root per layer call.
func layers(tr *obs.Tracer, root obs.SpanContext, params core.Params, ring *mask.KeyRing, p plan) (
	tracedOp, []*core.LocationSubmission, []*core.BidSubmission, error) {
	n := len(p.points)
	w := mask.Workers(workers, n)
	fail := func(err error) (tracedOp, []*core.LocationSubmission, []*core.BidSubmission, error) {
		return tracedOp{}, nil, nil, err
	}

	sp := tr.StartSpan("ttp.setup", root)
	trusted, err := ttp.FromRing(params, ring, rand.New(rand.NewSource(p.ttpSeed)))
	sp.End()
	if err != nil {
		return fail(err)
	}

	sp = tr.StartSpan("core.encode_location", root)
	locs, err := core.NewLocationSubmissions(params, ring, p.points, w)
	sp.End()
	if err != nil {
		return fail(err)
	}

	sp = tr.StartSpan("core.encode_bids", root)
	subs, err := encodeBids(params, ring, p, w)
	sp.End()
	if err != nil {
		return fail(err)
	}

	sp = tr.StartSpan("core.new_auctioneer", root)
	auc, err := core.NewAuctioneer(params, locs, subs)
	if err == nil {
		auc.SetWorkers(w)
	}
	sp.End()
	if err != nil {
		return fail(err)
	}

	sp = tr.StartSpan("core.conflict_graph", root)
	g := auc.ConflictGraph()
	sp.End()

	// GE on any pair builds the column's rank memo, which Allocate would
	// otherwise build lazily; the memo is rng-free, so forcing it here
	// changes no award.
	sp = tr.StartSpan("core.rank_memo", root)
	for r := 0; r < params.Channels; r++ {
		auc.GE(r, 0, 0)
	}
	sp.End()

	sp = tr.StartSpan("auction.allocate", root)
	assignments, err := auc.Allocate(p.alloc)
	sp.End()
	if err != nil {
		return fail(err)
	}

	sp = tr.StartSpan("ttp.charge", root)
	results := trusted.ProcessBatch(auc.ChargeRequests(assignments))
	sp.End()

	o := outcome{assignments: assignments, charges: make([]uint64, len(assignments))}
	for i, r := range results {
		switch {
		case r.Err != nil:
			return fail(fmt.Errorf("ttp: award %d: %w", i, r.Err))
		case !r.Valid:
			o.voided++
		default:
			o.charges[i] = r.Price
			o.revenue += r.Price
			o.satisfied++
		}
	}
	t := tracedOp{outcome: o, bidders: n, edges: g.Edges()}
	for i := range subs {
		t.bytes += core.SubmissionBytes(subs[i]) + core.LocationBytes(locs[i])
	}
	return t, locs, subs, nil
}

// encodeBids is round/parallel.go's encodeSubmissions bid half: bidder i
// encodes with its own seeded rng, striped over w goroutines.
func encodeBids(params core.Params, ring *mask.KeyRing, p plan, w int) ([]*core.BidSubmission, error) {
	sampler, err := core.NewDisguiseSampler(policy, params.BMax)
	if err != nil {
		return nil, err
	}
	n := len(p.points)
	subs := make([]*core.BidSubmission, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += w {
				rng := rand.New(rand.NewSource(p.bidderSeeds[i]))
				enc, err := core.NewBidEncoder(params, ring, sampler, rng)
				if err == nil {
					subs[i], err = enc.Encode(p.bids[i], rng)
				}
				errs[i] = err
			}
		}(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bidder %d: %w", i, err)
		}
	}
	return subs, nil
}

// frames pushes up to frameSample evenly spaced bidders' submissions
// through the wire codec — EncodeFrame on the bidder side; DecodeFrame, the
// gob payload decode and Validate on the auctioneer side — and returns the
// frame sizes.
func frames(tr *obs.Tracer, params core.Params, locs []*core.LocationSubmission, subs []*core.BidSubmission) ([]int, error) {
	root := tr.StartTrace("frames")
	defer root.End()
	step := (len(subs) + frameSample - 1) / frameSample
	var sizes []int
	for i := 0; i < len(subs); i += step {
		sub := transport.NewSubmission(i, locs[i], subs[i])
		sp := tr.StartSpan("transport.frame_encode", root.Context())
		frame, err := transport.EncodeFrame(transport.KindSubmission, sub)
		sp.End()
		if err != nil {
			return nil, err
		}
		sp = tr.StartSpan("transport.frame_decode", root.Context())
		var got transport.Submission
		env, dec, err := transport.DecodeFrame(frame)
		if err == nil {
			err = dec.Decode(&got)
		}
		if err == nil {
			err = got.Validate(params)
		}
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("decode frame of bidder %d: %w", i, err)
		}
		if env.Kind != transport.KindSubmission || got.BidderID != i {
			return nil, fmt.Errorf("frame of bidder %d decoded as kind %d bidder %d", i, env.Kind, got.BidderID)
		}
		sizes = append(sizes, len(frame))
	}
	return sizes, nil
}

// selfTimes returns every trace's per-name self time: a span's duration
// minus the part of it that its child spans cover, summed over the trace's
// spans of that name.
func selfTimes(spans []*obs.Span) map[obs.TraceID]map[string]time.Duration {
	children := make(map[obs.SpanID][]*obs.Span)
	for _, s := range spans {
		if s.Parent.Valid() {
			children[s.Parent.Span] = append(children[s.Parent.Span], s)
		}
	}
	out := make(map[obs.TraceID]map[string]time.Duration)
	for _, s := range spans {
		start, end := s.Start, s.Start.Add(s.Duration)
		kids := children[s.Ctx.Span]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
		var covered time.Duration
		cursor := start
		for _, k := range kids {
			ks, ke := k.Start, k.Start.Add(k.Duration)
			if ks.Before(cursor) {
				ks = cursor
			}
			if ke.After(end) {
				ke = end
			}
			if ke.After(ks) {
				covered += ke.Sub(ks)
				cursor = ke
			}
		}
		m := out[s.Ctx.Trace]
		if m == nil {
			m = make(map[string]time.Duration)
			out[s.Ctx.Trace] = m
		}
		m[s.Name] += s.Duration - covered
	}
	return out
}
