package obs

import (
	"errors"
	"strconv"
	"time"
)

// Telemetry is the one value every layer reports a run through: a
// registry for metrics, a tracer for spans (NewSampledTracer traces one
// run in K), a flight recorder that keeps each traced run, and a callback
// streaming every phase's wall time. Every field is optional; the zero
// value reports nothing and reads no clock.
type Telemetry struct {
	Metrics *Registry
	Tracer  *Tracer
	Flight  *FlightRecorder
	OnPhase func(phase string, d time.Duration)
}

// Validate rejects a Flight without a Tracer: the recorder keeps the
// spans the tracer collected.
func (t Telemetry) Validate() error {
	if t.Flight != nil && t.Tracer == nil {
		return errors.New("obs: a flight recorder needs a tracer")
	}
	return nil
}

// Start opens one run and returns its phase emitter. The run's root span,
// named name, carries the bidders and channels attributes and, when epoch
// ≥ 0, the epoch. The root span is nil, and no attribute is built, when
// there is no tracer or a sampled tracer skips this run. The emitter is
// nil, and reads no clock, when nothing reports; Finish ends the run.
func (t Telemetry) Start(metric, name string, bidders, channels, epoch int) *Phases {
	root := t.Tracer.StartTrace(name)
	if root == nil && t.Metrics == nil && t.OnPhase == nil {
		return nil
	}
	p := &Phases{reg: t.Metrics, metric: metric, fn: t.OnPhase}
	if root != nil {
		root.Annotate("bidders", strconv.Itoa(bidders))
		root.Annotate("channels", strconv.Itoa(channels))
		if epoch >= 0 {
			root.Annotate("epoch", strconv.Itoa(epoch))
		}
		p.root, p.tracer, p.flight, p.epoch = root, t.Tracer, t.Flight, epoch
		p.from = t.Tracer.finishedCount()
	}
	return p
}

// Phases is one run's lifecycle (Telemetry.Start → Phase … → Finish),
// reported as a sequence of named, non-overlapping phases (encode →
// conflict graph → allocation → charging for an auction round). It is
// the single phase reporter: each boundary reads the clock once and feeds
// up to three consumers — the phase's series of a shared histogram family
// (labelled phase="<name>", so exporters render the whole phase model
// under one metric name), a child span under the run's root span, and the
// OnPhase callback with the phase's wall time.
//
// The nil Phases is a no-op that never reads the clock, so unobserved
// runs stay byte-identical in behavior and pay nothing.
type Phases struct {
	reg    *Registry
	metric string
	fn     func(phase string, d time.Duration)

	// Set only when the run is traced.
	root   *Span
	tracer *Tracer
	flight *FlightRecorder
	epoch  int
	from   uint64 // the tracer's finished-span count at Start

	name  string
	start time.Time
	hist  *Histogram
	span  *Span
}

// Root returns the run's root span (nil when the run is untraced).
func (p *Phases) Root() *Span {
	if p == nil {
		return nil
	}
	return p.root
}

// Tracer returns the tracer holding the run's spans (nil when the run is
// untraced).
func (p *Phases) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// Phase ends the current phase and starts the named one.
func (p *Phases) Phase(name string) {
	if p == nil {
		return
	}
	now := time.Now()
	p.flush(now)
	p.name, p.start = name, now
	p.hist = p.reg.Histogram(p.metric, nil, L("phase", name))
	p.span = p.tracer.startSpanAt(name, p.root.Context(), now)
}

// Stop ends the current phase, if any. Phase may start another afterwards.
func (p *Phases) Stop() {
	if p == nil || p.name == "" {
		return
	}
	p.flush(time.Now())
	p.name, p.hist, p.span = "", nil, nil
}

func (p *Phases) flush(now time.Time) {
	if p.name == "" {
		return
	}
	d := now.Sub(p.start)
	p.hist.Observe(d.Seconds())
	p.span.endAt(now)
	if p.fn != nil {
		p.fn(p.name, d)
	}
}

// Finish ends the run. It stops the current phase, adds one
// straggler_excluded event per excluded bidder and err to the root span,
// and ends it. Then it records the run in the flight recorder: every
// span the tracer finished since Start, epoch-tagged when the run has an
// epoch. The spans stay in the tracer. Finish returns the path of the
// dump the entry triggered ("" when none did). Nil-safe.
func (p *Phases) Finish(err error, excluded []int) (string, error) {
	if p == nil {
		return "", nil
	}
	p.Stop()
	if p.root == nil {
		return "", nil
	}
	if err != nil {
		p.root.SetError(err.Error())
	}
	for _, id := range excluded {
		p.root.Event("straggler_excluded", L("bidder", strconv.Itoa(id)))
	}
	p.root.End()
	if p.flight == nil {
		return "", nil
	}
	rt := &RoundTrace{
		Label:    p.root.Name,
		Degraded: len(excluded) > 0,
		Epoch:    p.epoch,
		HasEpoch: p.epoch >= 0,
		Duration: p.root.Duration,
		Spans:    p.tracer.since(p.from),
	}
	if err != nil {
		rt.Err = err.Error()
	}
	return p.flight.Record(rt)
}
