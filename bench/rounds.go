package main

import (
	"fmt"
	"math/rand"
	"time"

	"lppa/internal/dataset"
	"lppa/internal/epoch"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/round"
)

// roundsShape sizes a closed-loop round workload: one caller runs
// round.Run back to back, each round over a freshly placed population with
// fresh bids, so a run's median averages over geometries instead of
// riding one seed's hotspots.
type roundsShape struct {
	mix     dataset.DensityMix
	bidders int
	setups  int // set-up repetitions; setup_s is their median
	warmup  int // rounds after set-up, before timing
}

// urbanRounds is dense geometry: three hotspots make conflict-graph
// construction a large share of the round, with few winners.
func urbanRounds(tiny bool) roundsShape {
	if tiny {
		return roundsShape{mix: dataset.UrbanMix(), bidders: 60, setups: 2, warmup: 1}
	}
	return roundsShape{mix: dataset.UrbanMix(), bidders: 3000, setups: 3, warmup: 3}
}

// ruralRounds is sparse geometry: many winners put allocation and TTP
// charging in front and keep the graph cheap.
func ruralRounds(tiny bool) roundsShape {
	if tiny {
		return roundsShape{mix: dataset.RuralMix(), bidders: 60, setups: 2, warmup: 1}
	}
	return roundsShape{mix: dataset.RuralMix(), bidders: 2000, setups: 3, warmup: 3}
}

// roundOp is one round's generated inputs: placement and bids drawn from
// their own seed lanes, and the round rng's seed.
type roundOp struct {
	pts  []geo.Point
	bids [][]uint64
	seed int64
}

func roundInput(seed int64, shape roundsShape, op int) roundOp {
	in := roundOp{
		pts:  shape.mix.Points(grid, shape.bidders, rand.New(rand.NewSource(epoch.EpochSeed(seed^saltPopulation, op)))),
		seed: epoch.EpochSeed(seed, op),
	}
	brng := rand.New(rand.NewSource(epoch.EpochSeed(seed^saltBids, op)))
	for range in.pts {
		in.bids = append(in.bids, bidsFor(brng))
	}
	return in
}

func runRounds(rc runConfig, shape roundsShape) (*measurement, error) {
	m := &measurement{shape: fmt.Sprintf("%s n=%d channels=%d setups=%d warmup=%d workers=%d",
		shape.mix.Name, shape.bidders, channels, shape.setups, shape.warmup, workers)}
	params := paramsFor(shape.mix.Lambda)
	ids := identity(shape.bidders)
	var ring *mask.KeyRing
	runOp := func(op int, in roundOp) (outcome, error) {
		m.attempted++
		res, err := round.Run(params, ring, round.Input{Points: in.pts, Bids: in.bids, Policy: policy,
			Rng: rand.New(rand.NewSource(in.seed))}, round.WithWorkers(workers))
		if err != nil {
			return outcome{}, fmt.Errorf("round %d: %w", op, err)
		}
		o := fromResult(res)
		if err := checkOutcome(in.pts, in.bids, params.Lambda, o); err != nil {
			m.fail("round %d: %v", op, err)
		}
		return o, nil
	}

	// Set-up is the TTP's key material plus the cold first round, repeated;
	// every repetition must reproduce round 0.
	g := newGate()
	var first string
	in0 := roundInput(rc.seed, shape, 0)
	for i := 0; i < shape.setups; i++ {
		start := time.Now()
		var err error
		if ring, err = keyRing(rc.seed); err != nil {
			return nil, err
		}
		o, err := runOp(0, in0)
		if err != nil {
			return nil, err
		}
		m.setup = append(m.setup, time.Since(start).Seconds())
		switch d := opDigest(0, ids, o); {
		case i == 0:
			first = d
			g.add(0, ids, o)
		case d != first:
			m.fail("set-up %d: round 0 digest %s, first set-up gave %s", i, d, first)
		}
	}
	op := 1
	for ; op <= shape.warmup; op++ {
		o, err := runOp(op, roundInput(rc.seed, shape, op))
		if err != nil {
			return nil, err
		}
		g.add(op, ids, o)
	}
	m.digest = g.digest()

	timed := rc.seconds
	if rc.trace {
		timed /= 2
	}
	type done struct {
		op     int
		digest string
		ms     float64
	}
	var ran []done
	ph := startPhase()
	began := time.Now()
	deadline := began.Add(timed)
	prevEnd := began
	for ; time.Now().Before(deadline); op++ {
		in := roundInput(rc.seed, shape, op)
		start := time.Now()
		m.late = append(m.late, ms(start.Sub(prevEnd)))
		o, err := runOp(op, in)
		if err != nil {
			return nil, err
		}
		prevEnd = time.Now()
		ph.sample()
		lat := ms(prevEnd.Sub(start))
		m.latency = append(m.latency, lat)
		ran = append(ran, done{op, opDigest(op, ids, o), lat})
	}
	wall := time.Since(began)
	m.phase = ph.stop(len(m.latency))
	m.note("rounds_per_s", "1/s", float64(len(m.latency))/wall.Seconds(), len(m.latency))
	if !rc.trace {
		return m, nil
	}

	// Traced pass: replay the timed rounds' inputs through the layers
	// one call at a time; each must reproduce round.Run's transcript.
	tr := obs.NewTracerBuffered("bench", 1<<20)
	deadline = time.Now().Add(timed)
	for i, d := range ran {
		if i > 0 && !time.Now().Before(deadline) {
			break
		}
		in := roundInput(rc.seed, shape, d.op)
		m.attempted++
		t, err := decompose(tr, d.op, params, ring, seededPlan(in.pts, in.bids, in.seed))
		if err != nil {
			m.fail("traced round %d: %v", d.op, err)
			continue
		}
		if got := opDigest(d.op, ids, t.outcome); got != d.digest {
			m.fail("traced round %d: digest %s, round.Run gave %s", d.op, got, d.digest)
		}
		m.traced = append(m.traced, t)
		m.baseline = append(m.baseline, d.ms)
	}
	m.spans = tr.Take()
	for _, s := range m.spans {
		if s.Name == "round" {
			m.tracedMs = append(m.tracedMs, ms(s.Duration))
		}
	}
	return m, nil
}
