package cli

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for ServePprof
	"os"
	"strings"
	"time"

	"lppa/internal/obs"
	"lppa/internal/obs/ops"
)

// ServePprof exposes net/http/pprof's default-mux handlers when addr is
// non-empty — the one -pprof-addr implementation lppa-net and lppa-sim
// share, so profiling a soak is always `go tool pprof
// http://addr/debug/pprof/profile`.
func ServePprof(addr string) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("pprof listener: %w", err)
	}
	fmt.Fprintf(os.Stderr, "pprof on http://%s/debug/pprof/\n", ln.Addr())
	go http.Serve(ln, nil)
	return nil
}

// OpsFlags binds the ops-plane flags: the structured event log, the SLO
// burn-rate monitor (inline phase=ceiling spec), the deterministic trace
// sampler, the anonymity floor, and breach-time profile capture. The
// zero value leaves every pillar off.
type OpsFlags struct {
	Events      string
	SLOSpec     string
	FastWindow  int
	SlowWindow  int
	AnonFloor   int
	SampleEvery int
	ProfileDir  string
}

// Register binds the ops flags onto fs, using the current field values as
// defaults.
func (f *OpsFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Events, "ops-events", f.Events,
		"append structured ops events as JSONL to this file (- for stderr); empty keeps the in-memory ring only")
	fs.StringVar(&f.SLOSpec, "slo", f.SLOSpec,
		"inline SLO spec: comma-separated phase=ceiling pairs, e.g. round=250ms,allocate=80ms")
	fs.IntVar(&f.FastWindow, "slo-fast-window", f.FastWindow,
		"samples in the fast burn-rate window (0 = monitor default)")
	fs.IntVar(&f.SlowWindow, "slo-slow-window", f.SlowWindow,
		"samples in the slow burn-rate window (0 = monitor default)")
	fs.IntVar(&f.AnonFloor, "anon-floor", f.AnonFloor,
		"alarm when an epoch's anonymity set (its admitted bidders) drops below this; 0 disables")
	fs.IntVar(&f.SampleEvery, "trace-sample", f.SampleEvery,
		"deterministically trace one epoch in every K with full spans (seeded, replayable); 0 disables sampling")
	fs.StringVar(&f.ProfileDir, "ops-profile-dir", f.ProfileDir,
		"capture heap and goroutine pprof profiles into this directory on each alarm transition")
}

// Validate rejects inconsistent ops flags right after Parse, before any
// listener or service comes up.
func (f *OpsFlags) Validate() error {
	if f.SampleEvery < 0 {
		return fmt.Errorf("cli: -trace-sample %d is negative (0 disables sampling)", f.SampleEvery)
	}
	if f.AnonFloor < 0 {
		return fmt.Errorf("cli: -anon-floor %d is negative (0 disables the floor)", f.AnonFloor)
	}
	if f.FastWindow < 0 || f.SlowWindow < 0 {
		return fmt.Errorf("cli: burn-rate windows must be non-negative (0 picks the default)")
	}
	if _, err := f.phases(); err != nil {
		return err
	}
	return nil
}

// Enabled reports whether any ops pillar was asked for — commands use it
// to decide whether a plane is worth building outside epoch mode.
func (f *OpsFlags) Enabled() bool {
	return f.Events != "" || f.SLOSpec != "" || f.AnonFloor > 0 ||
		f.SampleEvery > 0 || f.ProfileDir != ""
}

// Sampler builds the deterministic 1-in-K sampled tracer (nil when
// sampling is off). proc names the tracer's process row; seed makes the
// sampled epoch set replayable.
func (f *OpsFlags) Sampler(proc string, seed int64) *obs.Tracer {
	if f.SampleEvery <= 0 {
		return nil
	}
	return obs.NewSampledTracer(proc, seed, f.SampleEvery)
}

// phases resolves the inline -slo spec into per-phase ceilings.
func (f *OpsFlags) phases() (map[string]time.Duration, error) {
	if f.SLOSpec == "" {
		return nil, nil
	}
	phases := make(map[string]time.Duration)
	for _, pair := range strings.Split(f.SLOSpec, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, val, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("cli: -slo entry %q, want phase=duration", pair)
		}
		d, err := time.ParseDuration(strings.TrimSpace(val))
		if err != nil {
			return nil, fmt.Errorf("cli: -slo %s: %w", name, err)
		}
		if d <= 0 {
			return nil, fmt.Errorf("cli: -slo %s=%v, ceiling must be positive", name, d)
		}
		phases[strings.TrimSpace(name)] = d
	}
	return phases, nil
}

// SLOConfig assembles the burn-rate monitor's config from the inline
// spec. An empty result (no Phases) disables the monitor.
func (f *OpsFlags) SLOConfig() (ops.SLOConfig, error) {
	phases, err := f.phases()
	if err != nil {
		return ops.SLOConfig{}, err
	}
	return ops.SLOConfig{Phases: phases, FastWindow: f.FastWindow, SlowWindow: f.SlowWindow}, nil
}

// Plane assembles the ops plane: the event sink from -ops-events, the
// monitor from the SLO flags, the alarm-path hooks (flight ring, profile
// capture), and the sampled tracer /statusz reports on. reg, flight, and
// sampler may each be nil.
func (f *OpsFlags) Plane(reg *obs.Registry, flight *obs.FlightRecorder, sampler *obs.Tracer) (*ops.Plane, error) {
	slo, err := f.SLOConfig()
	if err != nil {
		return nil, err
	}
	var sink *os.File
	switch f.Events {
	case "":
	case "-":
		sink = os.Stderr
	default:
		sink, err = os.Create(f.Events)
		if err != nil {
			return nil, fmt.Errorf("cli: ops event log: %w", err)
		}
	}
	var events *ops.EventLog
	if sink != nil {
		events = ops.NewEventLog(sink)
	} else {
		events = ops.NewEventLog(nil) // ring-only: /statusz still shows recent events
	}
	return ops.New(ops.Config{
		Registry:       reg,
		Events:         events,
		SLO:            slo,
		AnonymityFloor: f.AnonFloor,
		Flight:         flight,
		Tracer:         sampler,
		ProfileDir:     f.ProfileDir,
	}), nil
}
