package ops

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lppa/internal/obs"
)

func get(t *testing.T, mux *http.ServeMux, path string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec.Code, rec.Body.String()
}

// TestPlaneLifecycleEndpoints walks the state machine through the three
// probe endpoints: not started → running → draining → closed, with
// readiness flipping exactly where Kubernetes-style probes expect it to.
func TestPlaneLifecycleEndpoints(t *testing.T) {
	p := New(Config{Events: NewEventLog(nil)})
	mux := http.NewServeMux()
	p.Routes(mux)

	if code, body := get(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "not started") {
		t.Fatalf("idle readyz: %d %q", code, body)
	}
	if code, body := get(t, mux, "/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("idle healthz: %d %q", code, body)
	}

	p.SetProbe(func() ServiceStatus {
		return ServiceStatus{Epoch: 3, IntakeDepth: 5, Admitted: 40, Rejected: 2}
	})
	if code, _ := get(t, mux, "/readyz"); code != http.StatusOK {
		t.Fatalf("running readyz: %d", code)
	}

	code, body := get(t, mux, "/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("statusz not JSON: %v\n%s", err, body)
	}
	if !st.Ready || st.State != "running" || st.Service == nil || st.Service.Epoch != 3 || st.Service.Admitted != 40 {
		t.Fatalf("statusz document: %+v", st)
	}

	p.NoteDraining()
	if code, body := get(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Fatalf("draining readyz: %d %q", code, body)
	}
	p.NoteClosed()
	p.NoteClosed() // idempotent
	if code, body := get(t, mux, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "closed") {
		t.Fatalf("closed readyz: %d %q", code, body)
	}
	evs := p.cfg.Events.Recent()
	var types []string
	for _, ev := range evs {
		types = append(types, ev.Type)
	}
	if want := []string{EventDraining, EventClosed}; strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("lifecycle events = %v, want %v", types, want)
	}
}

// TestPlaneSLOBreachAlarm drives the full alarm path: a violating phase
// sample latches the monitor, flips /healthz to 503, emits slo_breach,
// force-dumps the flight ring, bumps the breach and dump counters, and
// captures pprof profiles. Recovery emits slo_recovered and clears
// /healthz. Two cases: the ring already holds a round, so the alarm dumps
// at once; or the ring is empty, as when the breach fires during the
// first traced round, so the dump — its flight_dump event and its count —
// follows when that round has recorded and ObserveEpoch runs.
func TestPlaneSLOBreachAlarm(t *testing.T) {
	for _, recorded := range []bool{true, false} {
		name := "empty_ring"
		if recorded {
			name = "round_recorded"
		}
		t.Run(name, func(t *testing.T) { testSLOBreachAlarm(t, recorded) })
	}
}

func testSLOBreachAlarm(t *testing.T, recorded bool) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	fr := obs.NewFlightRecorder(filepath.Join(dir, "flight"), 4, 0)
	recordRound := func() {
		tr := obs.NewTracer("ops-test")
		tr.StartTrace("round").End()
		if _, err := fr.Record(&obs.RoundTrace{Label: "round", Epoch: 7, HasEpoch: true, Spans: tr.Snapshot()}); err != nil {
			t.Fatal(err)
		}
	}
	if recorded {
		recordRound()
	}
	p := New(Config{
		Registry: reg,
		Events:   NewEventLog(nil),
		SLO: SLOConfig{
			Phases:     map[string]time.Duration{"allocate": 5 * time.Millisecond},
			FastWindow: 4, SlowWindow: 8, // one violation trips (25x / 12.5x burn)
		},
		Flight:     fr,
		ProfileDir: filepath.Join(dir, "profiles"),
	})
	mux := http.NewServeMux()
	p.Routes(mux)
	p.SetProbe(func() ServiceStatus { return ServiceStatus{} })

	p.ObservePhase(7, "allocate", time.Millisecond)
	if code, _ := get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthy plane returned %d", code)
	}

	p.ObservePhase(7, "allocate", 80*time.Millisecond)
	code, body := get(t, mux, "/healthz")
	if code != http.StatusServiceUnavailable || !strings.Contains(body, "slo_breach:allocate") {
		t.Fatalf("breached healthz: %d %q", code, body)
	}

	dumps := reg.Counter("lppa_ops_flight_dumps_total")
	if !recorded {
		// Nothing to dump yet: no file, no event, no count. The round
		// records, and the epoch's observation retries the dump.
		if files, _ := filepath.Glob(filepath.Join(dir, "flight", "*")); len(files) != 0 || dumps.Value() != 0 {
			t.Fatalf("empty-ring alarm dumped %v (counter %d)", files, dumps.Value())
		}
		for _, ev := range p.cfg.Events.Recent() {
			if ev.Type == EventFlightDump {
				t.Fatalf("empty-ring alarm announced a dump: %+v", ev)
			}
		}
		recordRound()
		p.ObserveEpoch(EpochObs{Epoch: 7, Bidders: 8, Wall: time.Millisecond})
	}

	var breach, dump bool
	for _, ev := range p.cfg.Events.Recent() {
		switch ev.Type {
		case EventSLOBreach:
			breach = true
			if ev.Epoch != 7 || ev.Attrs["phase"] != "allocate" {
				t.Fatalf("breach event: %+v", ev)
			}
		case EventFlightDump:
			if dump {
				t.Fatalf("second flight_dump event: %+v", ev)
			}
			dump = true
			path, _ := ev.Attrs["path"].(string)
			if !strings.Contains(filepath.Base(path), "flight-e7-") || ev.Attrs["cause"] != EventSLOBreach {
				t.Fatalf("dump not epoch-tagged or uncaused: %+v", ev)
			}
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("flight dump path %q: %v", path, err)
			}
			var doc struct {
				TraceEvents []map[string]any `json:"traceEvents"`
			}
			if err := json.Unmarshal(blob, &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Fatalf("flight dump holds %d trace events (%v)", len(doc.TraceEvents), err)
			}
		}
	}
	if !breach || !dump {
		t.Fatalf("missing alarm events (breach=%v dump=%v): %+v", breach, dump, p.cfg.Events.Recent())
	}
	if dumps.Value() != 1 {
		t.Fatalf("lppa_ops_flight_dumps_total = %d, want 1", dumps.Value())
	}
	profiles, _ := filepath.Glob(filepath.Join(dir, "profiles", "breach-e7-*.pprof"))
	if len(profiles) == 0 {
		t.Fatal("no pprof profiles captured at the alarm")
	}

	// Recovery: good samples roll the violation out of the slow window.
	for i := 0; i < 10; i++ {
		p.ObservePhase(8, "allocate", time.Millisecond)
	}
	if code, _ := get(t, mux, "/healthz"); code != http.StatusOK {
		t.Fatal("healthz stayed 503 after recovery")
	}
	recovered := false
	for _, ev := range p.cfg.Events.Recent() {
		if ev.Type == EventSLORecovered {
			recovered = true
		}
	}
	if !recovered {
		t.Fatal("no slo_recovered event")
	}
}

// TestPlaneObserveEpoch pins the epoch fold: the event log gets
// epoch_closed (plus straggler_excluded when bidders were dropped), and
// /statusz carries the digest, trace id, anonymity series and the sampled
// tracer's progress.
func TestPlaneObserveEpoch(t *testing.T) {
	sampler := obs.NewSampledTracer("svc", 1, 1) // sample everything
	p := New(Config{Events: NewEventLog(nil), Tracer: sampler})

	root := sampler.StartTrace("round")
	if root == nil {
		t.Fatal("k=1 sampled tracer skipped")
	}
	root.End()
	trace := root.Ctx.Trace

	p.ObserveEpoch(EpochObs{
		Epoch: 12, Trace: trace, Bidders: 20, Excluded: 3,
		Wall: 2 * time.Millisecond, AwardDigest: "abc123", AnonMin: 4, AnonMean: 6.5,
	})

	var closed, straggler bool
	for _, ev := range p.cfg.Events.Recent() {
		switch ev.Type {
		case EventEpochClosed:
			closed = true
			if ev.Epoch != 12 || ev.Trace == "" || ev.Attrs["award_digest"] != "abc123" {
				t.Fatalf("epoch_closed event: %+v", ev)
			}
		case EventStragglerDrop:
			straggler = true
			if ev.Attrs["excluded"] != float64(3) && ev.Attrs["excluded"] != 3 {
				t.Fatalf("straggler event: %+v", ev)
			}
		}
	}
	if !closed || !straggler {
		t.Fatalf("missing epoch events: closed=%v straggler=%v", closed, straggler)
	}

	st := p.Status()
	if st.EpochsObserved != 1 || st.LastEpoch != 12 || st.LastAwardHash != "abc123" || st.LastTrace == "" {
		t.Fatalf("status after epoch: %+v", st)
	}
	if st.Degraded != 1 {
		t.Fatalf("degraded = %d", st.Degraded)
	}
	if len(st.Anonymity) != 1 || st.Anonymity[0].Min != 4 || st.Anonymity[0].Mean != 6.5 {
		t.Fatalf("anonymity series: %+v", st.Anonymity)
	}
	if st.Sampler == nil || st.Sampler.Every != 1 || st.Sampler.Sampled != 1 {
		t.Fatalf("sampler status: %+v", st.Sampler)
	}
}

// TestPlaneAnonymityFloor pins the privacy alarm: an epoch whose smallest
// anonymity set dips under the floor flips /healthz and emits exactly one
// anonymity_floor_violated per excursion; a clean epoch re-arms it.
func TestPlaneAnonymityFloor(t *testing.T) {
	p := New(Config{Events: NewEventLog(nil), AnonymityFloor: 5})

	p.ObserveEpoch(EpochObs{Epoch: 1, AnonMin: 8, AnonMean: 9})
	if ok, _ := p.Healthy(); !ok {
		t.Fatal("floor satisfied but unhealthy")
	}

	p.ObserveEpoch(EpochObs{Epoch: 2, AnonMin: 3, AnonMean: 4})
	ok, reasons := p.Healthy()
	if ok || len(reasons) != 1 || reasons[0] != "anonymity_floor_violated" {
		t.Fatalf("floor violation not reported: %v %v", ok, reasons)
	}
	p.ObserveEpoch(EpochObs{Epoch: 3, AnonMin: 2, AnonMean: 2}) // still under: latched, no second alarm
	count := 0
	for _, ev := range p.cfg.Events.Recent() {
		if ev.Type == EventAnonymityFloor {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d anonymity alarms for one excursion", count)
	}

	p.ObserveEpoch(EpochObs{Epoch: 4, AnonMin: 7, AnonMean: 8})
	if ok, _ := p.Healthy(); !ok {
		t.Fatal("floor restored but still unhealthy")
	}
}

// TestPlaneShedThrottle pins event coalescing under overload: the counter
// is exact, but at most one admission_shed event per second lands in the
// log, carrying the coalesced count.
func TestPlaneShedThrottle(t *testing.T) {
	p := New(Config{Events: NewEventLog(nil)})
	now := time.Unix(1000, 0)
	p.now = func() time.Time { return now }

	for i := 0; i < 100; i++ {
		p.NoteShed(time.Second)
	}
	now = now.Add(2 * time.Second)
	p.NoteShed(time.Second)

	var sheds []Event
	for _, ev := range p.cfg.Events.Recent() {
		if ev.Type == EventAdmissionShed {
			sheds = append(sheds, ev)
		}
	}
	if len(sheds) != 2 {
		t.Fatalf("%d shed events for 101 sheds, want 2 (throttled)", len(sheds))
	}
	if got := sheds[1].Attrs["coalesced"]; got != float64(99) && got != uint64(99) {
		t.Fatalf("coalesced = %v, want 99", got)
	}
	if p.Status().Sheds != 101 {
		t.Fatalf("exact shed count = %d", p.Status().Sheds)
	}
}

// TestNilPlaneIsInert: every Plane method on nil is a free no-op — the
// epochal service calls them unconditionally.
func TestNilPlaneIsInert(t *testing.T) {
	var p *Plane
	p.SetProbe(nil)
	p.NoteDraining()
	p.NoteClosed()
	p.NoteSeal(1, 2)
	p.NoteShed(time.Second)
	p.ObservePhase(1, "round", time.Second)
	p.ObserveEpoch(EpochObs{Epoch: 1})
	p.Routes(http.NewServeMux())
	p.Routes(nil)
	if ok, _ := p.Healthy(); !ok {
		t.Fatal("nil plane unhealthy")
	}
	if ok, _ := p.Ready(); ok {
		t.Fatal("nil plane ready")
	}
	if st := p.Status(); st.EpochsObserved != 0 {
		t.Fatal("nil plane has state")
	}
}
