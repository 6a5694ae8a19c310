package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/epoch"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/round"
	"lppa/internal/sim"
)

// serviceShape sizes the open-loop service workload: Poisson joins plus
// resubmit and depart churn, replayed in wall time into epoch.Service,
// which seals on a fixed wall-clock cadence.
type serviceShape struct {
	mix  dataset.DensityMix
	rate float64 // joins per second
	// horizon is the schedule's length in seconds. It is fixed rather
	// than derived from --seconds, so a seed's schedule — and every epoch
	// it seals — is the same for every run length.
	horizon    float64
	epochLen   float64 // seconds between seals
	warmup     float64 // seconds replayed before timing
	admitRate  float64 // admission cap, submissions per second
	admitBurst float64
	threshold  uint64 // accountant flush threshold
	setups     int
}

func openService(tiny bool) serviceShape {
	s := serviceShape{mix: dataset.MixedMix(), rate: 4000, horizon: 62, epochLen: 0.25, warmup: 1,
		admitRate: 5000, admitBurst: 250, threshold: 64, setups: 5}
	if tiny {
		s.rate, s.admitRate, s.admitBurst, s.warmup, s.setups = 200, 250, 25, 0.5, 2
	}
	return s
}

// serviceInput is the generated schedule: every bidder's fixed location
// and, per event, the bids it submits (nil for a depart).
type serviceInput struct {
	points []geo.Point
	events []sim.ArrivalEvent
	bids   [][]uint64
}

// serviceInputs builds the schedule's events before end.
func serviceInputs(seed int64, shape serviceShape, end float64) (*serviceInput, error) {
	n := int(shape.rate * shape.horizon)
	in := &serviceInput{
		points: shape.mix.Points(grid, n, rand.New(rand.NewSource(epoch.EpochSeed(seed^saltPopulation, 0)))),
	}
	sched, err := sim.BuildSchedule(sim.ArrivalConfig{
		Process: "poisson", Rate: shape.rate, ResubmitFrac: 0.2, DepartFrac: 0.05, Horizon: shape.horizon,
	}, n, rand.New(rand.NewSource(epoch.EpochSeed(seed^saltSchedule, 0))))
	if err != nil {
		return nil, err
	}
	seq := make(map[int]int)
	for _, ev := range sched {
		if ev.At >= end {
			break
		}
		var bids []uint64
		if ev.Kind != sim.EventDepart {
			bids = bidsFor(rand.New(rand.NewSource(epoch.EpochSeed(seed^saltBids+int64(ev.Bidder), seq[ev.Bidder]))))
			seq[ev.Bidder]++
		}
		in.events = append(in.events, ev)
		in.bids = append(in.bids, bids)
	}
	return in, nil
}

// sealedEpoch is the replayer's model of one sealed epoch: the admitted
// bidders in id order with what each last submitted.
type sealedEpoch struct {
	epoch  int
	ids    []int
	pts    []geo.Point
	bids   [][]uint64
	at     float64 // schedule time of the seal
	sealAt time.Time
	block  time.Duration // time Seal blocked on the one-deep queue
}

// replayer feeds the schedule into one service and mirrors its intake —
// latest submission wins, a depart withdraws, a seal takes everything
// pending — as the reference model every sealed epoch is checked against.
type replayer struct {
	svc    *epoch.Service
	in     *serviceInput
	shape  serviceShape
	m      *measurement
	start  time.Time
	paced  bool // wait for each event's and seal's wall-clock due time
	timing bool // record per-event timings (after warm-up)
	ph     *phase

	intake  map[int]int // bidder → event index of its admitted submission
	next    int         // next event
	seals   int         // seals done, pending ones included
	epoch   int         // number the collecting epoch will seal as
	sealed  []sealedEpoch
	offered int
	shed    int

	submitMs, callUs []float64
}

// run replays up to schedule time until, which must be a seal boundary.
func (r *replayer) run(until float64) error {
	for {
		sealAt := float64(r.seals+1) * r.shape.epochLen
		if r.next < len(r.in.events) && r.in.events[r.next].At < sealAt {
			if err := r.event(r.next); err != nil {
				return err
			}
			r.next++
			continue
		}
		if sealAt > until+1e-9 {
			return nil
		}
		if err := r.seal(sealAt); err != nil {
			return err
		}
		r.seals++
	}
}

func (r *replayer) due(at float64) time.Time {
	due := r.start.Add(time.Duration(at * float64(time.Second)))
	if r.paced {
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
	}
	return due
}

func (r *replayer) event(i int) error {
	ev := r.in.events[i]
	due := r.due(ev.At)
	call := time.Now()
	if ev.Kind == sim.EventDepart {
		ok, err := r.svc.Withdraw(ev.Bidder)
		if err != nil {
			return err
		}
		if _, pending := r.intake[ev.Bidder]; ok != pending {
			r.m.fail("withdraw of bidder %d reported %v, intake model says %v", ev.Bidder, ok, pending)
		}
		delete(r.intake, ev.Bidder)
		return nil
	}
	r.offered++
	err := r.svc.SubmitAt(epoch.Submission{Bidder: ev.Bidder, Point: r.in.points[ev.Bidder], Bids: r.in.bids[i]}, ev.At)
	ret := time.Now()
	var rl *epoch.ErrRateLimited
	switch {
	case err == nil:
		r.intake[ev.Bidder] = i
	case errors.As(err, &rl):
		r.shed++
	default:
		return fmt.Errorf("submit bidder %d: %w", ev.Bidder, err)
	}
	if r.timing {
		r.m.late = append(r.m.late, ms(call.Sub(due)))
		r.submitMs = append(r.submitMs, ms(ret.Sub(due)))
		r.callUs = append(r.callUs, ms(ret.Sub(call))*1e3)
	}
	return nil
}

func (r *replayer) seal(at float64) error {
	r.due(at)
	if r.ph != nil {
		r.ph.sample()
	}
	if len(r.intake) == 0 {
		return r.svc.Seal() // a no-op that consumes no epoch number
	}
	s := sealedEpoch{epoch: r.epoch, at: at}
	for id := range r.intake {
		s.ids = append(s.ids, id)
	}
	sort.Ints(s.ids)
	for _, id := range s.ids {
		s.pts = append(s.pts, r.in.points[id])
		s.bids = append(s.bids, r.in.bids[r.intake[id]])
	}
	s.sealAt = time.Now()
	if err := r.svc.Seal(); err != nil {
		return err
	}
	s.block = time.Since(s.sealAt)
	r.sealed = append(r.sealed, s)
	r.epoch++
	r.intake = make(map[int]int)
	return nil
}

type received struct {
	res *epoch.EpochResult
	at  time.Time
}

// collect drains the service's results on the one helper goroutine the
// load side may use; the returned channel delivers them once Results
// closes.
func collect(svc *epoch.Service) <-chan []received {
	out := make(chan []received, 1)
	go func() {
		var got []received
		for res := range svc.Results() {
			got = append(got, received{res, time.Now()})
		}
		out <- got
	}()
	return out
}

type serviceRun struct {
	svc            *epoch.Service
	billing, quota *epoch.MemStore
}

func newService(seed int64, shape serviceShape, params core.Params, ring *mask.KeyRing) (*serviceRun, error) {
	sr := &serviceRun{billing: epoch.NewMemStore(), quota: epoch.NewMemStore()}
	billing, err := epoch.NewAccountant("billing", sr.billing, shape.threshold, nil)
	if err != nil {
		return nil, err
	}
	quota, err := epoch.NewAccountant("quota", sr.quota, shape.threshold, nil)
	if err != nil {
		return nil, err
	}
	sr.svc, err = epoch.New(epoch.Config{
		Params: params, Ring: ring, Seed: seed, Policy: policy,
		Admission:    epoch.AdmissionConfig{Rate: shape.admitRate, Burst: shape.admitBurst},
		Billing:      billing,
		Quota:        quota,
		RoundOptions: []round.Option{round.WithWorkers(workers)},
	})
	return sr, err
}

// checkEpoch compares a delivered epoch with the replayer's model and the
// plaintext truth, and returns its transcript digest.
func checkEpoch(m *measurement, lambda uint64, s sealedEpoch, got *epoch.EpochResult) string {
	switch {
	case got.Epoch != s.epoch:
		m.fail("epoch %d delivered as epoch %d", s.epoch, got.Epoch)
		return ""
	case got.Err != nil:
		m.fail("epoch %d: %v", s.epoch, got.Err)
		return ""
	case !slices.Equal(got.Bidders, s.ids):
		m.fail("epoch %d admitted %d bidders, intake model has %d", s.epoch, len(got.Bidders), len(s.ids))
		return ""
	}
	o := fromResult(got.Result)
	if err := checkOutcome(s.pts, s.bids, lambda, o); err != nil {
		m.fail("epoch %d: %v", s.epoch, err)
	}
	return opDigest(s.epoch, s.ids, o)
}

func runService(rc runConfig, shape serviceShape) (*measurement, error) {
	timed := rc.seconds.Seconds()
	if rc.trace {
		timed /= 2
	}
	// End on a seal boundary so the last timed epoch is a whole one.
	end := shape.warmup + float64(int(timed/shape.epochLen))*shape.epochLen
	in, err := serviceInputs(rc.seed, shape, end)
	if err != nil {
		return nil, err
	}
	m := &measurement{shape: fmt.Sprintf("%s rate=%g/s horizon=%gs epoch=%gs warmup=%gs admit=%g/%g threshold=%d setups=%d workers=%d",
		shape.mix.Name, shape.rate, shape.horizon, shape.epochLen, shape.warmup, shape.admitRate, shape.admitBurst,
		shape.threshold, shape.setups, workers)}
	params := paramsFor(shape.mix.Lambda)

	// Set-up is the key ring, the service with its ledgers, and the cold
	// first epoch replayed as fast as it goes, repeated.
	var ring *mask.KeyRing
	var first string
	for i := 0; i < shape.setups; i++ {
		start := time.Now()
		if ring, err = keyRing(rc.seed); err != nil {
			return nil, err
		}
		sr, err := newService(rc.seed, shape, params, ring)
		if err != nil {
			return nil, err
		}
		rp := &replayer{svc: sr.svc, in: in, shape: shape, m: m, start: start, intake: make(map[int]int)}
		if err := rp.run(shape.epochLen); err != nil {
			return nil, err
		}
		if len(rp.sealed) != 1 {
			return nil, fmt.Errorf("set-up sealed %d epochs, want 1", len(rp.sealed))
		}
		res := <-sr.svc.Results()
		m.setup = append(m.setup, time.Since(start).Seconds())
		if err := sr.svc.Close(); err != nil {
			return nil, err
		}
		m.attempted += rp.offered
		m.refused += rp.shed
		switch d := checkEpoch(m, params.Lambda, rp.sealed[0], res); {
		case i == 0:
			first = d
		case d != first:
			m.fail("set-up %d: epoch 0 digest %s, first set-up gave %s", i, d, first)
		}
	}

	sr, err := newService(rc.seed, shape, params, ring)
	if err != nil {
		return nil, err
	}
	results := collect(sr.svc)
	rp := &replayer{svc: sr.svc, in: in, shape: shape, m: m, paced: true, start: time.Now(), intake: make(map[int]int)}
	err = rp.run(shape.warmup)
	if err == nil {
		rp.ph, rp.timing = startPhase(), true
		err = rp.run(end)
	}
	if cerr := sr.svc.Close(); err == nil {
		err = cerr
	}
	got := <-results
	if err != nil {
		return nil, err
	}
	m.attempted += rp.offered
	m.refused += rp.shed

	if len(got) != len(rp.sealed) {
		m.fail("%d epochs sealed, %d delivered", len(rp.sealed), len(got))
		return m, nil
	}
	g := newGate()
	digests := make([]string, len(got))
	var timedEpochs []int
	var blocks, sizes []float64
	for k, s := range rp.sealed {
		digests[k] = checkEpoch(m, params.Lambda, s, got[k].res)
		if s.at <= shape.warmup+1e-9 {
			if k == 0 && digests[k] != first {
				m.fail("epoch 0 digest %s, set-up gave %s", digests[k], first)
			}
			if digests[k] != "" {
				g.add(s.epoch, s.ids, fromResult(got[k].res.Result))
			}
			continue
		}
		timedEpochs = append(timedEpochs, k)
		m.latency = append(m.latency, ms(got[k].at.Sub(s.sealAt)))
		blocks = append(blocks, ms(s.block))
		sizes = append(sizes, float64(len(s.ids)))
	}
	m.digest = g.digest()
	m.phase = rp.ph.stop(len(timedEpochs))

	m.note("submit_ms.p50", "ms", p50(rp.submitMs), len(rp.submitMs))
	m.note("submit_ms.p99", "ms", pct(rp.submitMs, 99), len(rp.submitMs))
	m.note("epoch.submit_call_us.p50", "us", p50(rp.callUs), len(rp.callUs))
	m.note("epoch.submit_call_us.p99", "us", pct(rp.callUs, 99), len(rp.callUs))
	m.note("epoch.seal_block_ms.p90", "ms", pct(blocks, 90), len(blocks))
	m.note("epoch.bidders_per_epoch", "count", sum(sizes)/float64(len(sizes)), len(sizes))
	m.note("epoch.shed_frac", "ratio", ratio(float64(rp.shed), float64(rp.offered)), rp.offered)
	m.note("epoch.store_calls_per_epoch", "count",
		float64(sr.billing.Calls()+sr.quota.Calls())/float64(len(got)), len(got))

	// Each epoch must equal a one-shot round over its admitted set: check
	// the first, middle and last timed epochs untraced, and every epoch
	// the traced pass replays.
	if len(timedEpochs) > 0 {
		for _, k := range []int{timedEpochs[0], timedEpochs[len(timedEpochs)/2], timedEpochs[len(timedEpochs)-1]} {
			s := rp.sealed[k]
			res, err := round.Run(params, ring, round.Input{Points: s.pts, Bids: s.bids, Policy: policy,
				Rng: rand.New(rand.NewSource(epoch.EpochSeed(rc.seed, s.epoch)))}, round.WithWorkers(workers))
			if err != nil {
				m.fail("one-shot epoch %d: %v", s.epoch, err)
			} else if d := opDigest(s.epoch, s.ids, fromResult(res)); d != digests[k] {
				m.fail("epoch %d digest %s, one-shot round.Run gives %s", s.epoch, digests[k], d)
			}
		}
	}
	if !rc.trace {
		return m, nil
	}

	tr := obs.NewTracerBuffered("bench", 1<<20)
	deadline := time.Now().Add(time.Duration(timed * float64(time.Second)))
	for i, k := range timedEpochs {
		if i > 0 && !time.Now().Before(deadline) {
			break
		}
		s := rp.sealed[k]
		t, err := decompose(tr, s.epoch, params, ring, seededPlan(s.pts, s.bids, epoch.EpochSeed(rc.seed, s.epoch)))
		if err != nil {
			m.fail("traced epoch %d: %v", s.epoch, err)
			continue
		}
		if d := opDigest(s.epoch, s.ids, t.outcome); d != digests[k] {
			m.fail("traced epoch %d: digest %s, the service gave %s", s.epoch, d, digests[k])
		}
		m.traced = append(m.traced, t)
		m.baseline = append(m.baseline, m.latency[i])
	}
	m.spans = tr.Take()
	for _, s := range m.spans {
		if s.Name == "round" {
			m.tracedMs = append(m.tracedMs, ms(s.Duration))
		}
	}
	return m, nil
}
