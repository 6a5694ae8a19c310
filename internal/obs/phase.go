package obs

import "time"

// Phases reports one run as a sequence of named, non-overlapping phases
// (encode → conflict graph → allocation → charging for an auction round).
// It is the single phase reporter: each boundary reads the clock once and
// feeds up to three consumers — the phase's series of a shared histogram
// family (labelled phase="<name>", so exporters render the whole phase
// model under one metric name), a child span under the run's parent span,
// and a callback with the phase's wall time.
//
// The nil Phases (from NewPhases with no consumer) is a no-op that never
// reads the clock, so unobserved runs stay byte-identical in behavior and
// pay nothing.
type Phases struct {
	reg    *Registry
	metric string
	tracer *Tracer
	parent SpanContext
	fn     func(phase string, d time.Duration)

	name  string
	start time.Time
	hist  *Histogram
	span  *Span
}

// NewPhases returns a phase emitter recording into reg's metric histogram
// family (DurationBuckets), into tracer as children of parent, and into
// fn, which is called on the emitting goroutine. Any consumer may be nil;
// with all three nil it returns the nil (no-op) emitter.
func NewPhases(reg *Registry, metric string, tracer *Tracer, parent SpanContext, fn func(phase string, d time.Duration)) *Phases {
	if reg == nil && tracer == nil && fn == nil {
		return nil
	}
	return &Phases{reg: reg, metric: metric, tracer: tracer, parent: parent, fn: fn}
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
	p.span = p.tracer.startSpanAt(name, p.parent, now)
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
