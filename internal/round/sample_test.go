package round

import (
	"math/rand"
	"strconv"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/obs"
)

// TestWithTraceSamplerBitIdentical pins the observed-twin contract for
// sampled tracing over a sequence of rounds: every round — sampled or not
// — produces exactly the unsampled baseline's result, the sampled subset
// is the sampled tracer's deterministic schedule (reported via
// Result.Trace), and two runs at the same (seed, K) produce identical
// sampled trace sets.
func TestWithTraceSamplerBitIdentical(t *testing.T) {
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	const n, epochs = 14, 12
	p, ring, pts, bids := parallelFixture(t, n, 2, 11)
	in := func(e int) Input {
		return Input{Points: pts, Bids: bids, Policy: pol, Rng: rand.New(rand.NewSource(int64(100 + e)))}
	}

	baseline := make([]*Result, epochs)
	for e := range baseline {
		res, err := Run(p, ring, in(e))
		if err != nil {
			t.Fatalf("baseline epoch %d: %v", e, err)
		}
		baseline[e] = res
	}

	type sweep struct {
		sampled []int
		spans   int
	}
	runSweep := func() sweep {
		s := obs.NewSampledTracer("svc", 5, 3)
		var sw sweep
		for e := 0; e < epochs; e++ {
			res, err := Run(p, ring, in(e), WithTelemetry(obs.Telemetry{Tracer: s}), WithEpochNumber(e))
			if err != nil {
				t.Fatalf("sampled epoch %d: %v", e, err)
			}
			sameResult(t, "epoch "+strconv.Itoa(e), baseline[e], res)
			if res.Trace != 0 {
				sw.sampled = append(sw.sampled, e)
			}
		}
		if s.Sampled() != uint64(len(sw.sampled)) {
			t.Fatalf("schedule opened %d roots, %d rounds carry a trace", s.Sampled(), len(sw.sampled))
		}
		sw.spans = len(s.Take())
		return sw
	}

	a, b := runSweep(), runSweep()
	if len(a.sampled) != epochs/3 {
		t.Fatalf("sampled %d of %d epochs with k=3: %v", len(a.sampled), epochs, a.sampled)
	}
	// One residue class mod k is traced.
	for i := 1; i < len(a.sampled); i++ {
		if a.sampled[i]-a.sampled[i-1] != 3 {
			t.Fatalf("epochs traced off-schedule: %v", a.sampled)
		}
	}
	if len(a.sampled) != len(b.sampled) {
		t.Fatalf("sweeps sampled %v vs %v", a.sampled, b.sampled)
	}
	for i := range a.sampled {
		if a.sampled[i] != b.sampled[i] {
			t.Fatalf("sweeps sampled %v vs %v", a.sampled, b.sampled)
		}
	}
	if a.spans == 0 || a.spans != b.spans {
		t.Fatalf("span counts differ: %d vs %d", a.spans, b.spans)
	}
}

// TestWithTraceSamplerEpochAnnotation pins the sampled root span's
// metadata: the epoch number and the schedule's call index ride the span
// so a dumped trace is attributable without the event log.
func TestWithTraceSamplerEpochAnnotation(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 10, 2, 7)
	s := obs.NewSampledTracer("svc", 3, 1) // k=1: every round sampled
	res, err := Run(p, ring,
		Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(7))},
		WithTelemetry(obs.Telemetry{Tracer: s}), WithEpochNumber(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == 0 {
		t.Fatal("k=1 sampled round has no trace id")
	}
	var root *obs.Span
	for _, sp := range s.Snapshot() {
		if sp.Name == "round" {
			root = sp
		}
	}
	if root == nil {
		t.Fatal("no round root span")
	}
	if root.Ctx.Trace != res.Trace {
		t.Fatalf("Result.Trace %x != root trace %x", res.Trace, root.Ctx.Trace)
	}
	attrs := map[string]string{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["epoch"] != "42" || attrs["sample_index"] != "0" {
		t.Fatalf("root attrs = %v", attrs)
	}
}

// TestWithTraceSamplerOptionRules pins the option algebra: a sampled
// tracer satisfies the flight recorder's tracing requirement, a flight
// recorder without a tracer is rejected, and the nil tracer is the same
// as omitting it.
func TestWithTraceSamplerOptionRules(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 8, 2, 3)
	in := func() Input {
		return Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(3))}
	}
	s := obs.NewSampledTracer("svc", 1, 2)
	fr := obs.NewFlightRecorder(t.TempDir(), 2, 0)
	if _, err := Run(p, ring, in(), WithTelemetry(obs.Telemetry{Tracer: s, Flight: fr})); err != nil {
		t.Fatalf("sampled tracer + flight recorder rejected: %v", err)
	}
	if _, err := Run(p, ring, in(), WithTelemetry(obs.Telemetry{Flight: fr})); err == nil {
		t.Fatal("flight recorder without a tracer accepted")
	}
	want, err := Run(p, ring, in())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(p, ring, in(), WithTelemetry(obs.Telemetry{Tracer: nil}))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "nil tracer", want, got)
	if got.Trace != 0 {
		t.Fatal("nil tracer produced a trace id")
	}
}

// TestWithPhaseObserver pins the streaming phase signal behind the ops
// SLO monitor: every executed phase reports exactly once, in execution
// order, with a non-negative duration — and the observer changes nothing
// about the result.
func TestWithPhaseObserver(t *testing.T) {
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	p, ring, pts, bids := parallelFixture(t, 12, 2, 9)
	in := func() Input {
		return Input{Points: pts, Bids: bids, Policy: pol, Rng: rand.New(rand.NewSource(9))}
	}
	want, err := Run(p, ring, in())
	if err != nil {
		t.Fatal(err)
	}
	type obsPhase struct {
		name string
		d    time.Duration
	}
	var seen []obsPhase
	got, err := Run(p, ring, in(), WithTelemetry(obs.Telemetry{OnPhase: func(phase string, d time.Duration) {
		seen = append(seen, obsPhase{phase, d})
	}}))
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "observed", want, got)
	var names []string
	for _, ph := range seen {
		if ph.d < 0 {
			t.Fatalf("phase %q has negative duration %v", ph.name, ph.d)
		}
		names = append(names, ph.name)
	}
	wantNames := []string{"encode", "conflict_graph", "rank_memo", "allocate", "charge"}
	if len(names) != len(wantNames) {
		t.Fatalf("observed phases %v, want %v", names, wantNames)
	}
	for i := range names {
		if names[i] != wantNames[i] {
			t.Fatalf("observed phases %v, want %v", names, wantNames)
		}
	}
}
