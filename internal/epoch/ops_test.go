package epoch

import (
	"fmt"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/obs"
	"lppa/internal/obs/ops"
)

// TestServiceObservedTwin is the service-level observed-twin pin: a
// service wearing the full ops plane — sampled tracing, event log, SLO
// monitor, anonymity series — must produce bit-identical epoch results
// and award digests to a bare service over the same seed and
// populations, while the plane itself fills with the expected telemetry.
func TestServiceObservedTwin(t *testing.T) {
	p, ring := epochFixture(t)
	const seed, epochs = 41, 4
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	pops := make([][]Submission, epochs)
	for e := range pops {
		pops[e] = population(p, 20+5*e, int64(300+e))
	}

	runService := func(plane *ops.Plane, tel obs.Telemetry) []*EpochResult {
		s, err := New(Config{Params: p, Ring: ring, Seed: seed, Policy: pol, Ops: plane, Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		for e, pop := range pops {
			submitAll(t, s, pop, int64(200+e))
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return drain(t, s)
	}

	bare := runService(nil, obs.Telemetry{})

	sampler := obs.NewSampledTracer("epoch-twin", seed, 2)
	fr := obs.NewFlightRecorder(t.TempDir(), 8, 0)
	plane := ops.New(ops.Config{
		Events: ops.NewEventLog(nil),
		Tracer: sampler,
		Flight: fr,
		SLO: ops.SLOConfig{ // generous ceilings: telemetry on, alarms off
			Phases: map[string]time.Duration{"allocate": time.Hour, "charge": time.Hour},
		},
		AnonymityFloor: 1,
	})
	observed := runService(plane, obs.Telemetry{Tracer: sampler, Flight: fr})

	if len(bare) != epochs || len(observed) != epochs {
		t.Fatalf("epochs: bare %d observed %d, want %d", len(bare), len(observed), epochs)
	}
	for e := range bare {
		tag := fmt.Sprintf("epoch%d", e)
		sameOutcome(t, tag, observed[e].Result, bare[e].Result)
		bd := awardDigest(bare[e].Epoch, bare[e].Bidders, bare[e].Result)
		od := awardDigest(observed[e].Epoch, observed[e].Bidders, observed[e].Result)
		if bd != od {
			t.Errorf("%s: award digests diverge under the ops plane", tag)
		}
	}

	// The plane saw every epoch: seal + close events in order, the
	// sampler's 1-in-2 schedule on the closed events' trace ids, and a
	// status document carrying the last epoch's digest.
	var sealed, closed, traced int
	for _, ev := range plane.Events().Recent() {
		switch ev.Type {
		case ops.EventEpochSealed:
			sealed++
		case ops.EventEpochClosed:
			closed++
			if ev.Trace != "" {
				traced++
			}
		}
	}
	if sealed != epochs || closed != epochs {
		t.Fatalf("plane saw %d seals / %d closes, want %d each", sealed, closed, epochs)
	}
	if traced != epochs/2 {
		t.Fatalf("%d of %d epochs carried a trace id with k=2", traced, epochs)
	}
	if fr.Buffered() != epochs/2 {
		t.Fatalf("flight ring buffered %d traces, want %d", fr.Buffered(), epochs/2)
	}
	st := plane.Status()
	if st.EpochsObserved != epochs || st.LastEpoch != epochs-1 {
		t.Fatalf("plane status: %+v", st)
	}
	wantDigest := awardDigest(bare[epochs-1].Epoch, bare[epochs-1].Bidders, bare[epochs-1].Result)
	if st.LastAwardHash != wantDigest {
		t.Fatalf("status digest %q != recomputed %q", st.LastAwardHash, wantDigest)
	}
	if len(st.Anonymity) != epochs || st.Anonymity[0].Min < 1 {
		t.Fatalf("anonymity series: %+v", st.Anonymity)
	}
	if ok, reasons := plane.Healthy(); !ok {
		t.Fatalf("quiet run unhealthy: %v", reasons)
	}
}

// TestServiceProbeAndDrainEvents pins the readiness lifecycle through the
// service: New installs the status probe (ready, correct intake depth),
// Close flips the plane through draining to closed.
func TestServiceProbeAndDrainEvents(t *testing.T) {
	p, ring := epochFixture(t)
	plane := ops.New(ops.Config{Events: ops.NewEventLog(nil)})
	s, err := New(Config{Params: p, Ring: ring, Seed: 7,
		Policy: core.DisguisePolicy{P0: 1}, Ops: plane})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := plane.Ready(); !ok {
		t.Fatalf("running service not ready: %s", reason)
	}
	for _, sub := range population(p, 6, 55) {
		if err := s.Submit(sub); err != nil {
			t.Fatal(err)
		}
	}
	if st := plane.Status(); st.Service == nil || st.Service.IntakeDepth != 6 {
		t.Fatalf("probe intake depth: %+v", st.Service)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	if ok, reason := plane.Ready(); ok || reason != "closed" {
		t.Fatalf("closed service still ready: %v %q", ok, reason)
	}
	var types []string
	for _, ev := range plane.Events().Recent() {
		if ev.Type == ops.EventDraining || ev.Type == ops.EventClosed {
			types = append(types, ev.Type)
		}
	}
	if len(types) != 2 || types[0] != ops.EventDraining || types[1] != ops.EventClosed {
		t.Fatalf("lifecycle events = %v", types)
	}
}

// TestServiceShedTelemetry pins the admission → plane path: rejected
// submissions land in the plane's exact shed counter and the throttled
// admission_shed event stream.
func TestServiceShedTelemetry(t *testing.T) {
	p, ring := epochFixture(t)
	plane := ops.New(ops.Config{Events: ops.NewEventLog(nil)})
	s, err := New(Config{
		Params: p, Ring: ring, Seed: 3, Policy: core.DisguisePolicy{P0: 1},
		Admission: AdmissionConfig{Rate: 1, Burst: 3},
		Ops:       plane,
	})
	if err != nil {
		t.Fatal(err)
	}
	shed := 0
	for _, sub := range population(p, 10, 77) { // all at t=0: burst of 3 admits
		if err := s.SubmitAt(sub, 0); err != nil {
			shed++
		}
	}
	if shed != 7 {
		t.Fatalf("shed %d of 10 at burst 3, want 7", shed)
	}
	if got := plane.Status().Sheds; got != 7 {
		t.Fatalf("plane shed counter = %d, want 7", got)
	}
	events := 0
	for _, ev := range plane.Events().Recent() {
		if ev.Type == ops.EventAdmissionShed {
			events++
		}
	}
	if events < 1 || events > 7 {
		t.Fatalf("%d shed events, want throttled ≥1", events)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
}
