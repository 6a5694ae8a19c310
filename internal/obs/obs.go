// Package obs is the repo's dependency-free observability substrate: a
// Registry of named counters, gauges, and fixed-bucket histograms, a
// Tracer of spans with a flight recorder, one Telemetry value bundling
// them, whose Start opens the one run lifecycle (Phases) that reports an
// auction round's phases to metrics, spans and a callback at once, and
// exporters for an expvar-style JSON snapshot and the Prometheus text
// format (export.go).
//
// The package is built around one contract: a nil *Registry — and every
// metric handle obtained from one — is a valid no-op. Instrumented code
// never branches on "is observability on"; it calls Add/Set/Observe
// unconditionally on handles that may be nil, and the nil receiver check
// is the entire disabled-path cost. Hot loops count into plain locals and
// fold them through their handles once per build, so a loop iteration
// never touches a handle (see core.Auctioneer.SetObserver).
//
// All metric mutations are atomic, so one Registry can serve every party
// and goroutine of a process; metric creation is guarded by a mutex and
// idempotent (same name and labels return the same handle).
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one name="value" pair attached to a metric. Metrics with the
// same family name but different labels are distinct series (the phase
// histogram uses this: one series per round phase).
type Label struct {
	Key, Value string
}

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing atomic counter. The nil Counter
// discards all updates.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on the nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The nil Gauge discards all
// updates.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on the nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus a running sum and total count. Buckets are chosen at
// creation and never change, so Observe is lock-free. The nil Histogram
// discards all observations.
type Histogram struct {
	bounds []float64 // ascending upper bounds; an implicit +Inf follows
	counts []atomic.Uint64
	sum    atomic.Uint64 // float64 bits
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound ≥ v; len(bounds) = +Inf
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations (0 on the nil Histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on the nil Histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// DurationBuckets are the default latency bounds in seconds: 100 µs to
// 60 s, roughly ×2.5 per step. They cover a single masked comparison
// batch at the bottom and a full N=300, k=129 round at the top.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metricKind discriminates families in the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

// family is every series sharing one metric name.
type family struct {
	name   string
	kind   metricKind
	bounds []float64          // histogram families only
	series map[string]*series // keyed by rendered label string
}

type series struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry is a process-wide collection of metrics. The zero value is not
// usable; call NewRegistry. A nil *Registry is the disabled registry:
// every lookup returns a nil handle and every exporter emits an empty
// snapshot.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	help     map[string]string // family name → # HELP text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), help: make(map[string]string)}
}

// Help attaches a one-line description to a metric family, emitted as a
// # HELP line by the Prometheus exporter. It may be called before or
// after the family's first series exists; families without help text are
// exported exactly as before. Nil-safe.
func (r *Registry) Help(name, text string) {
	if r == nil || text == "" {
		return
	}
	r.mu.Lock()
	r.help[name] = text
	r.mu.Unlock()
}

// helpFor returns the family's help text ("" when unset).
func (r *Registry) helpFor(name string) string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.help[name]
}

// labelKey renders labels deterministically for series identity and
// export ({k1="v1",k2="v2"} sorted by key; empty for no labels).
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// get returns (creating if needed) the series for name+labels, checking
// that the family kind matches. Mixing kinds under one name panics: that
// is a programming error, not a runtime condition.
func (r *Registry) get(name string, kind metricKind, bounds []float64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, kind: kind, bounds: bounds, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered with conflicting kinds", name))
	}
	key := labelKey(labels)
	s := f.series[key]
	if s == nil {
		s = &series{labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			s.c = &Counter{}
		case kindGauge:
			s.g = &Gauge{}
		case kindHistogram:
			s.h = &Histogram{bounds: f.bounds, counts: make([]atomic.Uint64, len(f.bounds)+1)}
		}
		f.series[key] = s
	}
	return s
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns the nil (no-op) Counter.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return r.get(name, kindCounter, nil, labels).c
}

// Gauge returns the named gauge, creating it on first use. A nil registry
// returns the nil (no-op) Gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return r.get(name, kindGauge, nil, labels).g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls reuse the family's
// original bounds). A nil registry returns the nil (no-op) Histogram.
func (r *Registry) Histogram(name string, bounds []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(bounds) == 0 {
		bounds = DurationBuckets
	}
	sorted := append([]float64(nil), bounds...)
	sort.Float64s(sorted)
	return r.get(name, kindHistogram, sorted, labels).h
}
