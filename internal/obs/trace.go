package obs

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the span model behind round tracing: a Tracer hands out
// Spans keyed by (TraceID, SpanID), spans carry parent links, attributes,
// and timestamped events, and finished spans land in a bounded buffer
// that keeps the newest spans, which the exporters (traceexport.go) read
// and the flight recorder (flight.go) copies. Like the metric side of
// this package, everything follows the nil no-op contract: a nil *Tracer
// returns nil *Spans, and every method on a nil Span or Tracer does
// nothing and reads no clock, so code can be instrumented
// unconditionally and pay nothing when tracing is off.

// TraceID identifies one logical round across processes. Zero is "no
// trace".
type TraceID uint64

// SpanID identifies one span within a trace. Zero is "no span".
type SpanID uint64

// SpanContext names a span so children — possibly on the other end of a
// wire — can parent onto it.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (c SpanContext) Valid() bool { return c.Trace != 0 && c.Span != 0 }

// SpanEvent is a point-in-time annotation on a span (a fault injection,
// a replay dedup, a retry). At is the offset from the span's start.
type SpanEvent struct {
	Name  string
	At    time.Duration
	Attrs []Label
}

// Span is one timed operation. Fields are read by exporters after End;
// Event may be called concurrently with other Events on the same span.
// The nil Span discards everything and never reads the clock.
type Span struct {
	Name     string
	Proc     string // logical process ("auctioneer", "bidder-3")
	Ctx      SpanContext
	Parent   SpanContext // zero for a root span
	Start    time.Time   // carries the monotonic clock reading
	Duration time.Duration
	Attrs    []Label
	Events   []SpanEvent
	Err      string

	tracer *tracerCore
	mu     sync.Mutex
	ended  bool
	seq    uint64 // the span's place in its tracer's finish order
}

// Context returns the span's identity (zero on the nil Span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.Ctx
}

// Event appends a timestamped event to the span.
func (s *Span) Event(name string, attrs ...Label) {
	if s == nil {
		return
	}
	at := time.Since(s.Start)
	s.mu.Lock()
	s.Events = append(s.Events, SpanEvent{Name: name, At: at, Attrs: attrs})
	s.mu.Unlock()
}

// Annotate attaches an attribute to the span.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Attrs = append(s.Attrs, L(key, value))
	s.mu.Unlock()
}

// SetError marks the span failed.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.Err = msg
	s.mu.Unlock()
}

// End stamps the span's duration and hands it to the tracer's buffer.
// End is idempotent; only the first call records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAt(time.Now())
}

// endAt is End with the clock reading supplied by the caller.
func (s *Span) endAt(now time.Time) {
	if s == nil {
		return
	}
	d := now.Sub(s.Start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.Duration = d
	s.mu.Unlock()
	s.tracer.finish(s)
}

// tracerCore is the buffer shared by a Tracer and all its Named views:
// a ring of the newest finished spans, plus the sampling schedule of a
// tracer from NewSampledTracer.
type tracerCore struct {
	mu       sync.Mutex
	spans    []*Span
	next     int    // ring slot the next finished span overwrites once full
	finished uint64 // spans finished over the tracer's life
	max      int
	dropped  uint64
	idCtr    atomic.Uint64
	idBase   uint64
	sample   *sampler // nil: every StartTrace opens a root
}

// DefaultMaxSpans bounds a tracer's finished-span buffer. A fully traced
// N=300 round is well under 1000 spans. A full buffer evicts its oldest
// span, so a tracer that nothing drains keeps the newest spans.
const DefaultMaxSpans = 16384

func (tc *tracerCore) finish(s *Span) {
	if tc == nil {
		return
	}
	tc.mu.Lock()
	s.seq = tc.finished
	tc.finished++
	if len(tc.spans) < tc.max {
		tc.spans = append(tc.spans, s)
	} else {
		tc.spans[tc.next] = s
		tc.next = (tc.next + 1) % tc.max
		tc.dropped++
	}
	tc.mu.Unlock()
}

// nextID derives a process-unique 64-bit id: the FNV hash of the process
// name seeds the high bits, a golden-ratio-stepped counter fills the
// rest, and zero (the "no id" sentinel) is skipped.
func (tc *tracerCore) nextID() uint64 {
	for {
		n := tc.idCtr.Add(1)
		id := tc.idBase ^ (n * 0x9e3779b97f4a7c15)
		if id != 0 {
			return id
		}
	}
}

// Tracer creates spans for one logical process and buffers the finished
// ones. Named views share the buffer, so a single in-process demo can
// trace auctioneer, TTP, and bidders into one dump. The nil Tracer is
// the disabled tracer: StartTrace/StartSpan return nil, exports are
// empty.
type Tracer struct {
	core *tracerCore
	proc string
}

// NewTracer returns a tracer whose spans carry the given process name.
func NewTracer(proc string) *Tracer {
	return NewTracerBuffered(proc, DefaultMaxSpans)
}

// NewTracerBuffered is NewTracer with an explicit span-buffer cap.
func NewTracerBuffered(proc string, maxSpans int) *Tracer {
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(proc))
	return &Tracer{
		core: &tracerCore{max: maxSpans, idBase: h.Sum64()},
		proc: proc,
	}
}

// Named returns a view of the same tracer whose spans carry a different
// process name. Nil-safe.
func (t *Tracer) Named(proc string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{core: t.core, proc: proc}
}

// Proc returns the tracer's process name ("" on the nil Tracer).
func (t *Tracer) Proc() string {
	if t == nil {
		return ""
	}
	return t.proc
}

// StartTrace opens a root span in a fresh trace. A tracer from
// NewSampledTracer opens one for one call in K and returns nil for the
// rest.
func (t *Tracer) StartTrace(name string, attrs ...Label) *Span {
	if t == nil {
		return nil
	}
	if s := t.core.sample; s != nil {
		idx, ok := s.next()
		if !ok {
			return nil
		}
		attrs = append(attrs[:len(attrs):len(attrs)], L("sample_index", strconv.FormatUint(idx, 10)))
	}
	return t.start(name, SpanContext{Trace: TraceID(t.core.nextID())}, attrs, time.Now())
}

// StartSpan opens a child span. parent may be a local span's Context or
// a context received over the wire; an invalid parent yields a root span
// in a fresh trace.
func (t *Tracer) StartSpan(name string, parent SpanContext, attrs ...Label) *Span {
	return t.startSpanAt(name, parent, time.Now(), attrs...)
}

// startSpanAt is StartSpan with the clock reading supplied by the caller.
func (t *Tracer) startSpanAt(name string, parent SpanContext, at time.Time, attrs ...Label) *Span {
	if t == nil {
		return nil
	}
	if parent.Trace == 0 {
		parent = SpanContext{Trace: TraceID(t.core.nextID())}
	}
	return t.start(name, parent, attrs, at)
}

func (t *Tracer) start(name string, parent SpanContext, attrs []Label, at time.Time) *Span {
	s := &Span{
		Name:   name,
		Proc:   t.proc,
		Ctx:    SpanContext{Trace: parent.Trace, Span: SpanID(t.core.nextID())},
		Start:  at,
		Attrs:  attrs,
		tracer: t.core,
	}
	if parent.Span != 0 {
		s.Parent = parent
	}
	return s
}

// Snapshot copies the finished spans without draining them, ordered by
// start time. Nil-safe.
func (t *Tracer) Snapshot() []*Span {
	if t == nil {
		return nil
	}
	return t.since(0)
}

// Take drains every finished span, ordered by start time. Nil-safe.
func (t *Tracer) Take() []*Span {
	if t == nil {
		return nil
	}
	t.core.mu.Lock()
	out := t.core.spans
	t.core.spans, t.core.next = nil, 0
	t.core.mu.Unlock()
	sortSpans(out)
	return out
}

// finishedCount returns how many spans the tracer has finished so far.
func (t *Tracer) finishedCount() uint64 {
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.finished
}

// since copies the buffered spans finished after the tracer's first seq,
// ordered by start time.
func (t *Tracer) since(seq uint64) []*Span {
	t.core.mu.Lock()
	var out []*Span
	for _, s := range t.core.spans {
		if s.seq >= seq {
			out = append(out, s)
		}
	}
	t.core.mu.Unlock()
	sortSpans(out)
	return out
}

// Dropped returns how many finished spans the full buffer evicted to
// make room for newer ones.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.core.mu.Lock()
	defer t.core.mu.Unlock()
	return t.core.dropped
}

// sortSpans orders spans by start time, breaking ties by span id so the
// order is deterministic.
func sortSpans(spans []*Span) {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].Ctx.Span < spans[j].Ctx.Span
	})
}
