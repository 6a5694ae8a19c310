package round

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/obs"
)

// TestWithTraceBitIdentical pins the observed-twin contract for tracing:
// a traced round produces exactly the result of the same untraced call,
// for every pipeline and charging shape — tracing reads clocks and buffers
// spans but never touches the rng or the protocol.
func TestWithTraceBitIdentical(t *testing.T) {
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	const n = 16
	for _, seed := range []int64{3, 17} {
		p, ring, pts, bids := parallelFixture(t, n, 2, seed)
		for _, tc := range []struct {
			tag  string
			opts []Option
		}{
			{"serial", nil},
			{"workers4", []Option{WithWorkers(4)}},
			{"secondprice", []Option{WithSecondPrice()}},
			{"interactive", []Option{WithInteractiveCharging()}},
			{"quorum", []Option{WithWorkers(2), WithQuorum(n / 2)}},
		} {
			in := func() Input {
				return Input{Points: pts, Bids: bids, Policy: pol, Rng: rand.New(rand.NewSource(seed * 7))}
			}
			want, err := Run(p, ring, in(), tc.opts...)
			if err != nil {
				t.Fatalf("%s: untraced: %v", tc.tag, err)
			}
			tracer := obs.NewTracer("auctioneer")
			got, err := Run(p, ring, in(), append([]Option{WithTelemetry(obs.Telemetry{Tracer: tracer})}, tc.opts...)...)
			if err != nil {
				t.Fatalf("%s: traced: %v", tc.tag, err)
			}
			sameResult(t, tc.tag, want, got)
			if len(tracer.Snapshot()) == 0 {
				t.Errorf("%s: traced round recorded no spans", tc.tag)
			}
			// And a nil tracer is the documented same as omitting the option.
			got, err = Run(p, ring, in(), append([]Option{WithTelemetry(obs.Telemetry{Tracer: nil})}, tc.opts...)...)
			if err != nil {
				t.Fatalf("%s: nil tracer: %v", tc.tag, err)
			}
			sameResult(t, tc.tag+"/nil-tracer", want, got)
		}
	}
}

// TestWithTraceSpanTopology pins the trace shape of one round: a single
// round root carrying the population attributes, with the four phase spans
// as its direct children in phase order.
func TestWithTraceSpanTopology(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 12, 2, 5)
	tracer := obs.NewTracer("auctioneer")
	if _, err := Run(p, ring,
		Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(5))},
		WithWorkers(2), WithTelemetry(obs.Telemetry{Tracer: tracer})); err != nil {
		t.Fatal(err)
	}
	spans := tracer.Snapshot()
	byName := map[string]*obs.Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	root := byName["round"]
	if root == nil {
		t.Fatalf("no round root span; got %d spans", len(spans))
	}
	attrs := map[string]string{}
	for _, a := range root.Attrs {
		attrs[a.Key] = a.Value
	}
	if attrs["bidders"] != "12" || attrs["channels"] != "6" {
		t.Errorf("root attrs = %v, want bidders=12 channels=6", attrs)
	}
	var order []string
	for _, s := range spans {
		if s.Parent == root.Ctx {
			order = append(order, s.Name)
		}
	}
	want := []string{"encode", "conflict_graph", "rank_memo", "allocate", "charge"}
	if len(order) != len(want) {
		t.Fatalf("phase spans under root = %v, want %v", order, want)
	}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("phase order = %v, want %v", order, want)
		}
	}
}

// TestWithFlightRecorderRequiresTrace pins the telemetry dependency: a
// flight recorder keeps a tracer's spans, so it needs one.
func TestWithFlightRecorderRequiresTrace(t *testing.T) {
	p, ring, pts, bids := parallelFixture(t, 4, 2, 1)
	in := Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))}
	fr := obs.NewFlightRecorder(t.TempDir(), 2, 0)
	if _, err := Run(p, ring, in, WithTelemetry(obs.Telemetry{Flight: fr})); err == nil {
		t.Fatal("a flight recorder without a tracer accepted")
	}
}

// TestFlightRecorderDumpsDegradedRound drives the flight-recorder trigger
// through Run: a quorum round that excludes an unencodable bidder is
// degraded, so the recorder dumps a trace whose round span carries the
// straggler_excluded event; a fault-free round dumps nothing. Recording
// copies the spans: the tracer still holds both rounds afterwards.
func TestFlightRecorderDumpsDegradedRound(t *testing.T) {
	const n, bad = 12, 5
	p, ring, pts, bids := parallelFixture(t, n, 2, 9)
	dir := t.TempDir()
	tracer := obs.NewTracer("auctioneer")
	fr := obs.NewFlightRecorder(dir, 4, 0)
	tel := WithTelemetry(obs.Telemetry{Tracer: tracer, Flight: fr})

	// Clean round first: recorder ring buffers it, no dump.
	if _, err := Run(p, ring,
		Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(11))},
		WithWorkers(3), WithQuorum(n-1), tel); err != nil {
		t.Fatal(err)
	}
	if dumps, _ := filepath.Glob(filepath.Join(dir, "flight-*.trace.json")); len(dumps) != 0 {
		t.Fatalf("clean round dumped %v", dumps)
	}

	// Degraded round: bidder bad cannot encode, quorum keeps the round
	// alive, the recorder must dump.
	pts[bad] = geo.Point{X: p.MaxX + 1, Y: 0}
	res, err := Run(p, ring,
		Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(11))},
		WithWorkers(3), WithQuorum(n-1), tel)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != bad {
		t.Fatalf("Excluded = %v, want [%d]", res.Excluded, bad)
	}
	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.trace.json"))
	if err != nil || len(dumps) != 1 {
		t.Fatalf("flight dumps = %v (%v), want exactly one", dumps, err)
	}
	blob, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "straggler_excluded") {
		t.Errorf("flight dump lacks straggler_excluded event:\n%s", blob)
	}
	// The ring dump includes the buffered clean round too: both round
	// spans appear, giving before/after context.
	if got := strings.Count(string(blob), `"name":"round"`); got != 2 {
		t.Errorf("dump contains %d round spans, want 2 (clean + degraded)", got)
	}
	names := map[string]int{}
	for _, sp := range tracer.Snapshot() {
		names[sp.Name]++
	}
	for _, name := range []string{"round", "encode", "conflict_graph", "rank_memo", "allocate", "charge"} {
		if names[name] != 2 {
			t.Errorf("tracer holds %d %q spans after both rounds, want 2: %v", names[name], name, names)
		}
	}
}
