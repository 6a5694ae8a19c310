package transport

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/faults"
	"lppa/internal/geo"
	"lppa/internal/obs"
)

// TestChaosFaultSpanEvents pins the chaos-observability contract: every
// fault class the chaos matrix injects surfaces as a span event (via
// faults.Config.Observer) in at least one seeded run, so a flight-recorder
// dump of a chaotic round shows what the network did to it.
func TestChaosFaultSpanEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos span events skipped in -short")
	}
	classes := []struct {
		name          string
		cfg           faults.Config
		firstConnOnly bool
		srvCfg        Config
		wantKind      string
	}{
		{name: "drop", cfg: faults.Config{DropFrame: 0.5}, wantKind: "drop"},
		{name: "dup", cfg: faults.Config{DupFrame: 0.5}, wantKind: "dup"},
		{name: "corrupt", cfg: faults.Config{CorruptFrame: 0.5}, wantKind: "corrupt"},
		{name: "truncate", cfg: faults.Config{TruncateFrame: 0.5}, wantKind: "truncate"},
		{name: "delay", cfg: faults.Config{DelayProb: 0.8, MaxDelay: 150 * time.Millisecond}, wantKind: "delay"},
		{name: "slowloris",
			cfg:      faults.Config{SlowChunk: 256, SlowPause: 150 * time.Millisecond},
			srvCfg:   Config{FrameTimeout: 300 * time.Millisecond},
			wantKind: "slowloris"},
		{name: "crash", cfg: faults.Config{CloseAfterFrames: 1}, firstConnOnly: true, wantKind: "close"},
		// "kill" is absent: it fires on the write after KillAfterFrames, and
		// the client writes exactly one frame per connection, so the class
		// cannot manifest here; its observer is pinned by the faults unit
		// test instead.
	}
	for _, class := range classes {
		class := class
		t.Run(class.name, func(t *testing.T) {
			t.Parallel()
			tracer := obs.NewTracer("chaos")
			span := tracer.StartTrace("fault_injection", obs.L("class", class.name))
			var mu sync.Mutex
			kinds := map[string]int{}
			cfg := class.cfg
			cfg.Observer = func(kind string, frame int) {
				mu.Lock()
				kinds[kind]++
				mu.Unlock()
				span.Event("fault_"+kind, obs.L("frame", strconv.Itoa(frame)))
			}
			for _, seed := range chaosSeeds(t) {
				srvCfg := class.srvCfg
				srvCfg.Quorum = 2
				srvCfg.StragglerTimeout = 5 * time.Second
				srvCfg.IdleTimeout = 3 * time.Second
				runChaosRound(t, seed, 4,
					map[int]faults.Config{0: cfg, 1: cfg}, class.firstConnOnly, srvCfg)
				mu.Lock()
				hit := kinds[class.wantKind] > 0
				mu.Unlock()
				if hit {
					break
				}
			}
			span.End()
			// The event must be on the recorded span, not just counted: a
			// flight dump of this round has to show the injected fault.
			var names []string
			for _, ev := range tracer.Snapshot()[0].Events {
				names = append(names, ev.Name)
				if ev.Name == "fault_"+class.wantKind {
					return
				}
			}
			t.Fatalf("no fault_%s event recorded across seeds; saw %v", class.wantKind, names)
		})
	}
}

// TestTracedRoundEndToEnd runs a fault-free networked round with one
// shared tracer across all three parties and pins the cross-process span
// topology: the auctioneer's recv_submission spans parent onto the
// bidders' submit spans via the wire trace context, the TTP's
// serve_keyring spans parent onto fetch_keyring spans, and the
// auctioneer's phase spans hang off the round root.
func TestTracedRoundEndToEnd(t *testing.T) {
	const n = 3
	p := testParams()
	log := quietLogger()
	tracer := obs.NewTracer("auctioneer")

	ttpSrv, err := NewTTPServerWithConfig(p, []byte("traced"), 3, 4, listen(t),
		Config{Logger: log, Telemetry: obs.Telemetry{Tracer: tracer.Named("ttp")}})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()
	aucSrv, err := NewAuctioneerServerWithConfig(p, n, ttpSrv.Addr().String(), listen(t), 42,
		Config{Logger: log, Telemetry: obs.Telemetry{Tracer: tracer}})
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &BidderClient{
				ID: i, Params: p, Policy: core.DisguisePolicy{P0: 1},
				Timeout: time.Second, AwaitTimeout: 30 * time.Second,
				Tracer: tracer,
			}
			_, errs[i] = b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
				geo.Point{X: uint64(i + 1), Y: uint64(i + 2)},
				[]uint64{1, 2, 3, 4}, rand.New(rand.NewSource(int64(i))))
		}(i)
	}
	wg.Wait()
	if _, err := aucSrv.Outcome(); err != nil {
		t.Fatalf("round failed: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("bidder %d: %v", i, err)
		}
	}
	// The TTP ends its serve_keyring/serve_charges spans only after the
	// reply is sent, so a client can finish before the span is recorded.
	// Shutdown waits for every handler; drain both servers before reading
	// the tracer.
	drain, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := aucSrv.Shutdown(drain); err != nil {
		t.Fatalf("auctioneer shutdown: %v", err)
	}
	if err := ttpSrv.Shutdown(drain); err != nil {
		t.Fatalf("ttp shutdown: %v", err)
	}

	spans := tracer.Snapshot()
	byName := map[string][]*obs.Span{}
	ctx := map[obs.SpanContext]*obs.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		ctx[s.Ctx] = s
	}

	roots := byName["round"]
	if len(roots) != 1 {
		t.Fatalf("round spans = %d, want 1", len(roots))
	}
	root := roots[0]
	for _, phase := range []string{"conflict_graph", "rank_memo", "allocate", "charge"} {
		ps := byName[phase]
		if len(ps) != 1 {
			t.Fatalf("%s spans = %d, want 1", phase, len(ps))
		}
		if ps[0].Parent != root.Ctx {
			t.Errorf("%s span parent = %+v, want round root %+v", phase, ps[0].Parent, root.Ctx)
		}
	}

	recvs := byName["recv_submission"]
	if len(recvs) != n {
		t.Fatalf("recv_submission spans = %d, want %d", len(recvs), n)
	}
	for _, r := range recvs {
		parent, ok := ctx[r.Parent]
		if !ok {
			t.Fatalf("recv_submission parent %+v not in snapshot", r.Parent)
		}
		if parent.Name != "submit" || !strings.HasPrefix(parent.Proc, "bidder-") {
			t.Errorf("recv_submission parents onto %s/%s, want a bidder submit span", parent.Proc, parent.Name)
		}
		if r.Ctx.Trace != parent.Ctx.Trace {
			t.Errorf("recv_submission trace %x != bidder trace %x", r.Ctx.Trace, parent.Ctx.Trace)
		}
	}

	serves := byName["serve_keyring"]
	if len(serves) != n {
		t.Fatalf("serve_keyring spans = %d, want %d", len(serves), n)
	}
	for _, s := range serves {
		parent, ok := ctx[s.Parent]
		if !ok || parent.Name != "fetch_keyring" {
			t.Errorf("serve_keyring parent = %+v (%v), want a fetch_keyring span", s.Parent, ok)
		}
	}
	if len(byName["serve_charges"]) != 1 {
		t.Errorf("serve_charges spans = %d, want 1", len(byName["serve_charges"]))
	}
	if len(byName["participate"]) != n || len(byName["encode"]) != n {
		t.Errorf("participate/encode spans = %d/%d, want %d each",
			len(byName["participate"]), len(byName["encode"]), n)
	}
}

// TestFlightRecorderDumpsDegradedNetworkRound is the flight-recorder
// acceptance scenario: a bidder dies mid-round, the straggler timeout
// degrades the round to quorum, and the recorder auto-dumps a trace that
// contains the straggler_excluded event.
func TestFlightRecorderDumpsDegradedNetworkRound(t *testing.T) {
	const n = 3
	dir := t.TempDir()
	tracer := obs.NewTracer("auctioneer")
	fr := obs.NewFlightRecorder(dir, 4, 0)
	out := runChaosRound(t, 21, n,
		map[int]faults.Config{0: {TruncateFrame: 1}}, false,
		Config{Quorum: 2, StragglerTimeout: 2 * time.Second, IdleTimeout: 3 * time.Second,
			Telemetry: obs.Telemetry{Tracer: tracer, Flight: fr}})
	if out.outcomeErr != nil {
		t.Fatalf("round failed instead of degrading: %v", out.outcomeErr)
	}
	if len(out.outcome.Excluded) != 1 || out.outcome.Excluded[0] != 0 {
		t.Fatalf("Excluded = %v, want [0]", out.outcome.Excluded)
	}

	dumps, err := filepath.Glob(filepath.Join(dir, "flight-*.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dumps) != 1 {
		t.Fatalf("flight dumps = %v, want exactly one", dumps)
	}
	blob, err := os.ReadFile(dumps[0])
	if err != nil {
		t.Fatal(err)
	}
	body := string(blob)
	if !strings.Contains(body, "straggler_excluded") {
		t.Errorf("flight dump lacks straggler_excluded event:\n%s", body)
	}
	if !strings.Contains(body, `"round"`) {
		t.Errorf("flight dump lacks the round span:\n%s", body)
	}
}
