package ops

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"lppa/internal/obs"
)

// Config wires a Plane to the rest of the observability stack. Every
// field is optional; the zero Config yields a plane that only tracks
// state for /statusz.
type Config struct {
	// Registry receives the plane's own metrics (lppa_ops_*); nil skips
	// metric export.
	Registry *obs.Registry
	// Events receives the structured JSONL event stream.
	Events *EventLog
	// SLO configures the burn-rate monitor; an empty Phases map disables
	// it.
	SLO SLOConfig
	// AnonymityFloor, when > 0, raises the alarm path whenever an
	// epoch's anonymity set (EpochObs.AnonMin) falls below it.
	AnonymityFloor int
	// Flight, when set, is force-dumped by the alarm path so the trace
	// ring around a breach lands on disk. The rounds record into it
	// themselves (obs.Telemetry.Flight).
	Flight *obs.FlightRecorder
	// Tracer, when it samples (obs.NewSampledTracer), fills /statusz's
	// sampler block.
	Tracer *obs.Tracer
	// ProfileDir, when set, receives heap and goroutine pprof profiles
	// captured at each alarm transition.
	ProfileDir string
}

// ServiceStatus is what the epochal service's probe reports live.
type ServiceStatus struct {
	Epoch       int    `json:"epoch"` // epoch currently collecting intake
	IntakeDepth int    `json:"intake_depth"`
	Closed      bool   `json:"closed"`
	Admitted    uint64 `json:"admitted_total"`
	Rejected    uint64 `json:"rejected_total"`
}

// AnonPoint is one epoch's privacy-audit sample in the /statusz time
// series.
type AnonPoint struct {
	Epoch int     `json:"epoch"`
	Min   int     `json:"min"`
	Mean  float64 `json:"mean"`
}

// SamplerStatus reports the sampled tracer's progress.
type SamplerStatus struct {
	Every   int    `json:"every"` // 1-in-K
	Sampled uint64 `json:"sampled_total"`
}

// Status is the /statusz document.
type Status struct {
	Healthy        bool                   `json:"healthy"`
	Unhealthy      []string               `json:"unhealthy_reasons,omitempty"`
	Ready          bool                   `json:"ready"`
	State          string                 `json:"state"`
	Service        *ServiceStatus         `json:"service,omitempty"`
	EpochsObserved uint64                 `json:"epochs_observed"`
	LastEpoch      int                    `json:"last_epoch"`
	LastAwardHash  string                 `json:"last_award_digest,omitempty"`
	LastTrace      string                 `json:"last_trace,omitempty"`
	Degraded       uint64                 `json:"degraded_epochs_total"`
	Sheds          uint64                 `json:"admission_sheds_total"`
	Sampler        *SamplerStatus         `json:"sampler,omitempty"`
	SLO            map[string]PhaseStatus `json:"slo,omitempty"`
	AnonymityFloor int                    `json:"anonymity_floor,omitempty"`
	Anonymity      []AnonPoint            `json:"anonymity,omitempty"`
	Events         []Event                `json:"recent_events,omitempty"`
}

// anonKeep bounds the /statusz anonymity time series.
const anonKeep = 64

// EpochObs is everything the epochal service reports about one finished
// epoch.
type EpochObs struct {
	Epoch    int
	Trace    obs.TraceID // sampled trace id (0 when the epoch was untraced)
	Bidders  int
	Excluded int // bidders dropped by quorum/straggler policy
	Err      string
	Wall     time.Duration
	// AwardDigest is the SHA-256 of the epoch's award transcript — the
	// line format bench/'s award digests hash, so a live service and an
	// offline replay can be compared digest to digest.
	AwardDigest string
	// AnonMin/AnonMean summarize the epoch's anonymity set: the admitted
	// population (the epoch service reports its size for both).
	AnonMin  int
	AnonMean float64
}

// Plane is the live ops plane. All methods are safe for concurrent use
// and nil-safe: a nil *Plane is the disabled plane, so the service calls
// it unconditionally.
type Plane struct {
	cfg     Config
	monitor *Monitor

	mu           sync.Mutex
	probe        func() ServiceStatus
	state        string // "idle" → "running" → "draining" → "closed"
	epochs       uint64
	degraded     uint64
	sheds        uint64
	lastEpoch    int
	lastDigest   string
	lastTrace    obs.TraceID
	anon         []AnonPoint
	anonBreached bool
	alarmSeq     int
	unmetDumps   []alarmDump // alarms whose dump found the flight ring empty
	shedLast     time.Time
	shedHeld     uint64
	now          func() time.Time

	// metric handles (nil when Config.Registry is nil)
	mEpochWall *obs.Histogram
	mBreaches  *obs.Counter
	mSheds     *obs.Counter
	mSampled   *obs.Counter
	mAnonMin   *obs.Gauge
	mAnonViol  *obs.Counter
	mDumps     *obs.Counter
}

// alarmDump is one alarm's flight-dump request. Its dump finds the ring
// empty when the alarm is raised before the first traced round records:
// an intra-round phase breach during that round, or any alarm while a
// sampled tracer has skipped every round so far.
type alarmDump struct {
	cause string
	epoch int
	trace uint64
}

// New builds a plane from cfg and registers its metrics. The new metric
// families carry # HELP text and unit-suffixed names per the Prometheus
// naming conventions.
func New(cfg Config) *Plane {
	p := &Plane{
		cfg:       cfg,
		monitor:   NewMonitor(cfg.SLO),
		state:     "idle",
		lastEpoch: -1,
		now:       time.Now,
	}
	if r := cfg.Registry; r != nil {
		p.mEpochWall = r.Histogram("lppa_ops_epoch_wall_seconds", nil)
		r.Help("lppa_ops_epoch_wall_seconds", "Wall-clock duration of each completed epoch's auction round.")
		p.mBreaches = r.Counter("lppa_ops_slo_breaches_total")
		r.Help("lppa_ops_slo_breaches_total", "SLO burn-rate breach transitions latched by the ops plane.")
		p.mSheds = r.Counter("lppa_ops_admission_sheds_total")
		r.Help("lppa_ops_admission_sheds_total", "Submissions shed by the admission gate, as seen by the ops plane.")
		p.mSampled = r.Counter("lppa_ops_sampled_traces_total")
		r.Help("lppa_ops_sampled_traces_total", "Epochs that carried full span tracing under the 1-in-K sampler.")
		p.mAnonMin = r.Gauge("lppa_ops_tile_anonymity_min_cells")
		r.Help("lppa_ops_tile_anonymity_min_cells", "Smallest anonymity set (admitted bidders) observed in the latest epoch.")
		p.mAnonViol = r.Counter("lppa_ops_anonymity_floor_violations_total")
		r.Help("lppa_ops_anonymity_floor_violations_total", "Epochs whose minimum anonymity set fell below the configured floor.")
		p.mDumps = r.Counter("lppa_ops_flight_dumps_total")
		r.Help("lppa_ops_flight_dumps_total", "Flight-recorder dumps forced by the ops alarm path.")
	}
	return p
}

// SetProbe installs the live service-state probe backing /statusz and
// flips the plane to running/ready. Nil-safe.
func (p *Plane) SetProbe(probe func() ServiceStatus) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.probe = probe
	if p.state == "idle" {
		p.state = "running"
	}
	p.mu.Unlock()
}

// NoteDraining flips readiness off and emits the drain event; the
// epochal service calls it when Close begins. Nil-safe.
func (p *Plane) NoteDraining() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.state == "draining" || p.state == "closed" {
		p.mu.Unlock()
		return
	}
	p.state = "draining"
	p.mu.Unlock()
	p.cfg.Events.Emit(EventDraining, -1, 0, nil)
}

// NoteClosed marks the drain complete. Nil-safe.
func (p *Plane) NoteClosed() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if p.state == "closed" {
		p.mu.Unlock()
		return
	}
	p.state = "closed"
	p.mu.Unlock()
	p.cfg.Events.Emit(EventClosed, -1, 0, nil)
}

// NoteSeal records an epoch's intake being sealed for execution.
// Nil-safe.
func (p *Plane) NoteSeal(epoch, bidders int) {
	if p == nil {
		return
	}
	p.cfg.Events.Emit(EventEpochSealed, epoch, 0, map[string]any{"bidders": bidders})
}

// shedThrottle coalesces admission_shed events: under overload the gate
// rejects thousands of submissions per second, and one event per
// rejection would drown the log the moment it matters most.
const shedThrottle = time.Second

// NoteShed records one admission rejection. Events are throttled to one
// per second with a coalesced count; the counter is exact. Nil-safe.
func (p *Plane) NoteShed(retryAfter time.Duration) {
	if p == nil {
		return
	}
	p.mSheds.Inc()
	p.mu.Lock()
	p.sheds++
	now := p.now()
	if !p.shedLast.IsZero() && now.Sub(p.shedLast) < shedThrottle {
		p.shedHeld++
		p.mu.Unlock()
		return
	}
	p.shedLast = now
	held := p.shedHeld
	p.shedHeld = 0
	epoch := -1
	if p.probe != nil {
		epoch = p.probe().Epoch
	}
	p.mu.Unlock()
	p.cfg.Events.Emit(EventAdmissionShed, epoch, 0, map[string]any{
		"retry_after_ms": durMs(retryAfter),
		"coalesced":      held,
	})
}

// ObservePhase folds one round-phase latency sample into the burn-rate
// monitor and fires the alarm path on a breach transition. The epochal
// service installs it as the round's phase observer. Nil-safe.
func (p *Plane) ObservePhase(epoch int, phase string, d time.Duration) {
	if p == nil {
		return
	}
	breach, recovered := p.monitor.Observe(phase, d)
	p.handleVerdict(epoch, phase, breach, recovered)
}

// handleVerdict routes a monitor transition to the event log and alarm
// path.
func (p *Plane) handleVerdict(epoch int, phase string, breach *Breach, recovered bool) {
	if breach != nil {
		p.mBreaches.Inc()
		p.alarm(EventSLOBreach, epoch, 0, map[string]any{
			"phase":       breach.Phase,
			"observed_ms": durMs(breach.Observed),
			"ceiling_ms":  durMs(breach.Ceiling),
			"fast_burn":   breach.FastBurn,
			"slow_burn":   breach.SlowBurn,
		})
	}
	if recovered {
		p.cfg.Events.Emit(EventSLORecovered, epoch, 0, map[string]any{"phase": phase})
	}
}

// ObserveEpoch folds one finished epoch into the plane: metrics, the
// anonymity time series and floor check, the "round" SLO window, and the
// event log. Nil-safe.
func (p *Plane) ObserveEpoch(eo EpochObs) {
	if p == nil {
		return
	}
	// The epoch's round has recorded its flight entry by now (when it was
	// traced), so alarms that found the ring empty get their dumps first.
	p.mu.Lock()
	unmet := p.unmetDumps
	p.unmetDumps = nil
	p.mu.Unlock()
	for _, d := range unmet {
		p.flightDump(d)
	}

	p.mEpochWall.ObserveDuration(eo.Wall)
	if eo.AnonMin > 0 {
		p.mAnonMin.Set(int64(eo.AnonMin))
	}
	if eo.Trace != 0 {
		p.mSampled.Inc()
	}

	p.mu.Lock()
	p.epochs++
	p.lastEpoch = eo.Epoch
	p.lastDigest = eo.AwardDigest
	p.lastTrace = eo.Trace
	if eo.Excluded > 0 || eo.Err != "" {
		p.degraded++
	}
	if eo.AnonMin > 0 {
		p.anon = append(p.anon, AnonPoint{Epoch: eo.Epoch, Min: eo.AnonMin, Mean: eo.AnonMean})
		if len(p.anon) > anonKeep {
			p.anon = p.anon[len(p.anon)-anonKeep:]
		}
	}
	floorViolated := p.cfg.AnonymityFloor > 0 && eo.AnonMin > 0 && eo.AnonMin < p.cfg.AnonymityFloor
	anonTransition := floorViolated && !p.anonBreached
	if p.cfg.AnonymityFloor > 0 && eo.AnonMin >= p.cfg.AnonymityFloor {
		p.anonBreached = false
	}
	if floorViolated {
		p.anonBreached = true
	}
	p.mu.Unlock()

	attrs := map[string]any{
		"bidders": eo.Bidders,
		"wall_ms": durMs(eo.Wall),
	}
	if eo.AwardDigest != "" {
		attrs["award_digest"] = eo.AwardDigest
	}
	if eo.AnonMin > 0 {
		attrs["anonymity_min"] = eo.AnonMin
		attrs["anonymity_mean"] = eo.AnonMean
	}
	if eo.Err != "" {
		attrs["error"] = eo.Err
	}
	if eo.Excluded > 0 {
		attrs["excluded"] = eo.Excluded
		p.cfg.Events.Emit(EventStragglerDrop, eo.Epoch, uint64(eo.Trace), map[string]any{"excluded": eo.Excluded})
	}
	p.cfg.Events.Emit(EventEpochClosed, eo.Epoch, uint64(eo.Trace), attrs)

	if floorViolated {
		p.mAnonViol.Inc()
		if anonTransition {
			p.alarm(EventAnonymityFloor, eo.Epoch, uint64(eo.Trace), map[string]any{
				"anonymity_min": eo.AnonMin,
				"floor":         p.cfg.AnonymityFloor,
			})
		}
	}

	// The whole-epoch wall time runs through the same monitor as the
	// intra-round phases, under the "round" phase (-slo round=…).
	breach, recovered := p.monitor.Observe("round", eo.Wall)
	p.handleVerdict(eo.Epoch, "round", breach, recovered)
}

// alarm is the shared breach path: emit the event, force a flight dump,
// and capture pprof profiles when configured.
func (p *Plane) alarm(typ string, epoch int, trace uint64, attrs map[string]any) {
	p.cfg.Events.Emit(typ, epoch, trace, attrs)
	p.mu.Lock()
	p.alarmSeq++
	seq := p.alarmSeq
	p.mu.Unlock()
	if p.cfg.Flight != nil {
		p.flightDump(alarmDump{cause: typ, epoch: epoch, trace: trace})
	}
	if p.cfg.ProfileDir != "" {
		p.captureProfiles(epoch, seq)
	}
}

// flightDump force-dumps the flight ring for one alarm, counting the dump
// and announcing it with a flight_dump event. An empty ring writes
// nothing, and the alarm waits in unmetDumps for ObserveEpoch to retry it
// after the next epoch's round; the ring never empties once filled, so
// only alarms raised before the first traced round wait.
func (p *Plane) flightDump(d alarmDump) {
	path, err := p.cfg.Flight.Dump(d.cause, d.epoch)
	if err != nil {
		return
	}
	if path == "" {
		p.mu.Lock()
		p.unmetDumps = append(p.unmetDumps, d)
		p.mu.Unlock()
		return
	}
	p.mDumps.Inc()
	p.cfg.Events.Emit(EventFlightDump, d.epoch, d.trace, map[string]any{"path": path, "cause": d.cause})
}

// captureProfiles writes heap and goroutine profiles next to the flight
// dumps; failures are swallowed (telemetry never takes the service
// down).
func (p *Plane) captureProfiles(epoch, seq int) {
	if err := os.MkdirAll(p.cfg.ProfileDir, 0o755); err != nil {
		return
	}
	for _, kind := range []string{"heap", "goroutine"} {
		prof := pprof.Lookup(kind)
		if prof == nil {
			continue
		}
		name := fmt.Sprintf("breach-e%d-%03d-%s.pprof", epoch, seq, kind)
		f, err := os.Create(filepath.Join(p.cfg.ProfileDir, name))
		if err != nil {
			continue
		}
		_ = prof.WriteTo(f, 0)
		_ = f.Close()
	}
}

// Healthy reports liveness: no phase latched in SLO breach and no
// standing anonymity-floor violation. Nil-safe (a nil plane is healthy).
func (p *Plane) Healthy() (bool, []string) {
	if p == nil {
		return true, nil
	}
	var reasons []string
	for _, phase := range p.monitor.Breached() {
		reasons = append(reasons, fmt.Sprintf("slo_breach:%s", phase))
	}
	p.mu.Lock()
	if p.anonBreached {
		reasons = append(reasons, "anonymity_floor_violated")
	}
	p.mu.Unlock()
	return len(reasons) == 0, reasons
}

// Ready reports readiness: a probe is installed and the service is not
// draining or closed. Nil-safe (a nil plane is not ready).
func (p *Plane) Ready() (bool, string) {
	if p == nil {
		return false, "no ops plane"
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case "running":
		return true, "ready"
	case "idle":
		return false, "not started"
	default:
		return false, p.state
	}
}

// Events exposes the plane's event log (nil when the plane — or its
// log — is nil), so callers can inspect the recent-event ring without
// going through /statusz.
func (p *Plane) Events() *EventLog {
	if p == nil {
		return nil
	}
	return p.cfg.Events
}

// Status assembles the /statusz document. Nil-safe (zero Status).
func (p *Plane) Status() Status {
	if p == nil {
		return Status{}
	}
	healthy, reasons := p.Healthy()
	ready, _ := p.Ready()
	st := Status{
		Healthy:        healthy,
		Unhealthy:      reasons,
		Ready:          ready,
		SLO:            p.monitor.Status(),
		AnonymityFloor: p.cfg.AnonymityFloor,
		Events:         p.cfg.Events.Recent(),
	}
	if tr := p.cfg.Tracer; tr.Every() > 0 {
		st.Sampler = &SamplerStatus{Every: tr.Every(), Sampled: tr.Sampled()}
	}
	p.mu.Lock()
	st.State = p.state
	st.EpochsObserved = p.epochs
	st.LastEpoch = p.lastEpoch
	st.LastAwardHash = p.lastDigest
	if p.lastTrace != 0 {
		st.LastTrace = hexTrace(uint64(p.lastTrace))
	}
	st.Degraded = p.degraded
	st.Sheds = p.sheds
	st.Anonymity = append([]AnonPoint(nil), p.anon...)
	probe := p.probe
	p.mu.Unlock()
	if probe != nil {
		s := probe()
		st.Service = &s
	}
	return st
}

// Routes registers /healthz, /readyz, and /statusz on mux — the same
// mux that serves /metrics, so one listener covers probes, scrapes, and
// humans. Nil-safe (registers nothing).
func (p *Plane) Routes(mux *http.ServeMux) {
	if p == nil || mux == nil {
		return
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if ok, reasons := p.Healthy(); !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			for _, r := range reasons {
				fmt.Fprintln(w, r)
			}
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		ok, state := p.Ready()
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintln(w, state)
	})
	mux.HandleFunc("/statusz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(p.Status())
	})
}
