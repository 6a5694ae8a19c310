package ops

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"lppa/internal/obs"
)

// The burn-rate monitor. The -slo spec sets p99 latency ceilings per
// phase; treating "sample over its ceiling" as budget spend gives each
// phase an error budget of Objective (1% for a p99 ceiling). Following
// the multi-window burn-rate pattern, a breach requires BOTH a fast
// window burning hot (catches sharp regressions within a few epochs) AND
// a slow window burning above sustain (filters one-off spikes that a
// single fast window would page on). Burn is computed against the full
// window size even before the window fills, so a cold monitor cannot
// alarm off one unlucky sample — the violating samples must accumulate
// either way.

// SLOConfig configures the burn-rate monitor.
type SLOConfig struct {
	// Phases maps a phase/span name to its p99 latency ceiling. An empty
	// map disables the monitor.
	Phases map[string]time.Duration
	// Objective is the tolerated violation fraction; 0 defaults to 0.01
	// (the ceilings are p99s).
	Objective float64
	// FastWindow and SlowWindow are rolling sample counts (not wall
	// time: the service's cadence is epochs, so windows are epochs).
	// Defaults 12 and 96.
	FastWindow, SlowWindow int
	// FastBurn and SlowBurn are the burn-rate thresholds; a breach
	// requires both windows at or above their threshold. Defaults 10
	// and 2.
	FastBurn, SlowBurn float64
}

// DefaultSLOConfig fills zero fields with the defaults above.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.Objective <= 0 {
		c.Objective = 0.01
	}
	if c.FastWindow <= 0 {
		c.FastWindow = 12
	}
	if c.SlowWindow <= 0 {
		c.SlowWindow = 96
	}
	if c.SlowWindow < c.FastWindow {
		c.SlowWindow = c.FastWindow
	}
	if c.FastBurn <= 0 {
		c.FastBurn = 10
	}
	if c.SlowBurn <= 0 {
		c.SlowBurn = 2
	}
	return c
}

// Breach describes one burn-rate breach (or recovery) transition.
type Breach struct {
	Phase    string
	Observed time.Duration // the sample that tipped the windows
	Ceiling  time.Duration
	FastBurn float64
	SlowBurn float64
}

func (b Breach) String() string {
	return fmt.Sprintf("phase %q: %v over ceiling %v (burn fast %.1f, slow %.1f)",
		b.Phase, b.Observed, b.Ceiling, b.FastBurn, b.SlowBurn)
}

// PhaseStatus is one phase's live SLO state for /statusz.
type PhaseStatus struct {
	CeilingMs  float64 `json:"ceiling_ms"`
	Samples    int     `json:"samples"` // samples currently in the slow window
	P50Ms      float64 `json:"p50_ms"`
	P95Ms      float64 `json:"p95_ms"`
	P99Ms      float64 `json:"p99_ms"`
	FastBurn   float64 `json:"fast_burn"`
	SlowBurn   float64 `json:"slow_burn"`
	Violations uint64  `json:"violations_total"`
	Breached   bool    `json:"breached"`
}

// phaseTrack is the rolling window state for one phase.
type phaseTrack struct {
	ceiling    time.Duration
	ring       []time.Duration // capacity SlowWindow, filled circularly
	next       int
	filled     int
	violations uint64 // lifetime count
	breached   bool   // latched until burn falls under thresholds
}

// Monitor evaluates per-phase latency samples against an SLOConfig.
// Safe for concurrent Observe; the nil *Monitor ignores everything.
type Monitor struct {
	mu     sync.Mutex
	cfg    SLOConfig
	phases map[string]*phaseTrack
}

// NewMonitor returns a monitor for the given config, or nil (the no-op
// monitor) when the config names no phases.
func NewMonitor(cfg SLOConfig) *Monitor {
	if len(cfg.Phases) == 0 {
		return nil
	}
	cfg = cfg.withDefaults()
	m := &Monitor{cfg: cfg, phases: make(map[string]*phaseTrack, len(cfg.Phases))}
	for name, ceiling := range cfg.Phases {
		m.phases[name] = &phaseTrack{ceiling: ceiling, ring: make([]time.Duration, cfg.SlowWindow)}
	}
	return m
}

// Observe folds one sample into the phase's windows and reports a
// transition: a *Breach when the phase just crossed into breach,
// (nil, true) when it just recovered, (nil, false) otherwise. Phases the
// config doesn't bound are ignored. Nil-safe.
func (m *Monitor) Observe(phase string, d time.Duration) (breach *Breach, recovered bool) {
	if m == nil {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.phases[phase]
	if t == nil {
		return nil, false
	}
	t.ring[t.next] = d
	t.next = (t.next + 1) % len(t.ring)
	if t.filled < len(t.ring) {
		t.filled++
	}
	if d > t.ceiling {
		t.violations++
	}
	fast, slow := m.burns(t)
	over := fast >= m.cfg.FastBurn && slow >= m.cfg.SlowBurn
	switch {
	case over && !t.breached:
		t.breached = true
		return &Breach{Phase: phase, Observed: d, Ceiling: t.ceiling, FastBurn: fast, SlowBurn: slow}, false
	case !over && t.breached:
		t.breached = false
		return nil, true
	}
	return nil, false
}

// burns computes the fast- and slow-window burn rates for a track under
// m.mu: violating samples in the window divided by the window's error
// budget (window size × objective). Denominators use the configured
// window size, not the filled count, so partially-filled windows can
// only under-report burn.
func (m *Monitor) burns(t *phaseTrack) (fast, slow float64) {
	fastViol, slowViol := 0, 0
	for i := 0; i < t.filled; i++ {
		// Walk backward from the most recent sample.
		idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
		if t.ring[idx] > t.ceiling {
			slowViol++
			if i < m.cfg.FastWindow {
				fastViol++
			}
		}
	}
	fast = float64(fastViol) / (float64(m.cfg.FastWindow) * m.cfg.Objective)
	slow = float64(slowViol) / (float64(m.cfg.SlowWindow) * m.cfg.Objective)
	return fast, slow
}

// Breached reports whether any phase is currently latched in breach,
// listing the breached phase names sorted. Nil-safe.
func (m *Monitor) Breached() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []string
	for name, t := range m.phases {
		if t.breached {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Status renders every tracked phase for /statusz, keyed by phase name.
// Percentiles are rebuilt from the slow window through obs.LatencySummary
// (exact nearest-rank). Nil-safe.
func (m *Monitor) Status() map[string]PhaseStatus {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]PhaseStatus, len(m.phases))
	for name, t := range m.phases {
		var sum obs.LatencySummary
		for i := 0; i < t.filled; i++ {
			idx := (t.next - 1 - i + 2*len(t.ring)) % len(t.ring)
			sum.Observe(t.ring[idx])
		}
		fast, slow := m.burns(t)
		out[name] = PhaseStatus{
			CeilingMs:  durMs(t.ceiling),
			Samples:    t.filled,
			P50Ms:      durMs(sum.Quantile(0.50)),
			P95Ms:      durMs(sum.Quantile(0.95)),
			P99Ms:      durMs(sum.Quantile(0.99)),
			FastBurn:   fast,
			SlowBurn:   slow,
			Violations: t.violations,
			Breached:   t.breached,
		}
	}
	return out
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
