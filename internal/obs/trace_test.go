package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanLifecycleAndParenting(t *testing.T) {
	tr := NewTracer("auctioneer")
	root := tr.StartTrace("round", L("bidders", "3"))
	if !root.Context().Valid() {
		t.Fatalf("root context invalid: %+v", root.Context())
	}
	child := tr.StartSpan("allocate", root.Context())
	if child.Ctx.Trace != root.Ctx.Trace {
		t.Fatalf("child trace %x != root trace %x", child.Ctx.Trace, root.Ctx.Trace)
	}
	if child.Parent != root.Context() {
		t.Fatalf("child parent = %+v, want %+v", child.Parent, root.Context())
	}
	child.Event("straggler_excluded", L("bidder", "1"))
	child.End()
	root.End()
	root.End() // idempotent

	spans := tr.Take()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Take drains.
	if got := tr.Take(); len(got) != 0 {
		t.Fatalf("second Take returned %d spans", len(got))
	}
	var found bool
	for _, s := range spans {
		if s.Name == "allocate" {
			found = true
			if len(s.Events) != 1 || s.Events[0].Name != "straggler_excluded" {
				t.Fatalf("allocate events = %+v", s.Events)
			}
		}
	}
	if !found {
		t.Fatalf("allocate span missing")
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	root := tr.StartTrace("round")
	if root != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	root.Event("e")
	root.Annotate("k", "v")
	root.SetError("boom")
	root.End()
	child := tr.Named("bidder").StartSpan("x", root.Context())
	child.End()
	if got := tr.Take(); got != nil {
		t.Fatalf("nil tracer Take = %v", got)
	}
	if got := tr.Snapshot(); got != nil {
		t.Fatalf("nil tracer Snapshot = %v", got)
	}
	if tr.Dropped() != 0 || tr.Proc() != "" {
		t.Fatalf("nil tracer not inert")
	}
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if err := WriteTraceSummary(&sb, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNamedViewsShareBuffer(t *testing.T) {
	tr := NewTracer("auctioneer")
	b := tr.Named("bidder-0")
	s1 := tr.StartTrace("round")
	s2 := b.StartSpan("submit", s1.Context())
	s2.End()
	s1.End()
	spans := tr.Take()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	procs := map[string]bool{}
	for _, s := range spans {
		procs[s.Proc] = true
	}
	if !procs["auctioneer"] || !procs["bidder-0"] {
		t.Fatalf("procs = %v", procs)
	}
}

func TestTracerBufferBounded(t *testing.T) {
	tr := NewTracerBuffered("p", 4)
	var started []SpanID
	for i := 0; i < 10; i++ {
		s := tr.StartTrace("s")
		started = append(started, s.Ctx.Span)
		s.End()
	}
	kept := tr.Snapshot()
	if len(kept) != 4 {
		t.Fatalf("buffered %d spans, want 4", len(kept))
	}
	// A full buffer evicts its oldest span: the last 4 started survive.
	for i, s := range kept {
		if want := started[6+i]; s.Ctx.Span != want {
			t.Fatalf("kept span %d is %x, want the %dth started (%x)", i, s.Ctx.Span, 7+i, want)
		}
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer("p")
	root := tr.StartTrace("round")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				s := tr.StartSpan("w", root.Context())
				root.Event("tick")
				s.End()
			}
		}()
	}
	wg.Wait()
	root.End()
	spans := tr.Take()
	if len(spans) != 401 {
		t.Fatalf("got %d spans, want 401", len(spans))
	}
	ids := map[SpanID]bool{}
	for _, s := range spans {
		if ids[s.Ctx.Span] {
			t.Fatalf("duplicate span id %x", s.Ctx.Span)
		}
		ids[s.Ctx.Span] = true
	}
}

// goldenSpans builds a fixed two-process span set with hand-set ids and
// times, the shape a traced round produces: an auctioneer root span, a
// bidder-side submit span parenting into it, and a phase child with one
// event.
func goldenSpans() []*Span {
	t0 := time.Date(2024, 5, 1, 12, 0, 0, 0, time.UTC)
	root := &Span{
		Name: "round", Proc: "auctioneer",
		Ctx:   SpanContext{Trace: 1, Span: 2},
		Start: t0, Duration: 1500 * time.Microsecond,
		Attrs: []Label{L("bidders", "2")},
	}
	submit := &Span{
		Name: "submit", Proc: "bidder-0",
		Ctx:    SpanContext{Trace: 1, Span: 7},
		Parent: SpanContext{Trace: 1, Span: 2},
		Start:  t0.Add(50 * time.Microsecond), Duration: 400 * time.Microsecond,
	}
	alloc := &Span{
		Name: "allocate", Proc: "auctioneer",
		Ctx:    SpanContext{Trace: 1, Span: 3},
		Parent: SpanContext{Trace: 1, Span: 2},
		Start:  t0.Add(200 * time.Microsecond), Duration: 300 * time.Microsecond,
		Events: []SpanEvent{{Name: "straggler_excluded", At: 100 * time.Microsecond, Attrs: []Label{L("bidder", "1")}}},
	}
	return []*Span{root, submit, alloc}
}

// TestChromeTraceGolden pins the trace_event output byte-for-byte so the
// file stays loadable in chrome://tracing / Perfetto.
func TestChromeTraceGolden(t *testing.T) {
	want := `{"traceEvents":[` +
		`{"name":"process_name","ph":"M","ts":0,"pid":1,"tid":1,"args":{"name":"auctioneer"}},` +
		`{"name":"process_name","ph":"M","ts":0,"pid":2,"tid":2,"args":{"name":"bidder-0"}},` +
		`{"name":"round","cat":"round","ph":"X","ts":0,"dur":1500,"pid":1,"tid":1,"args":{"bidders":"2","span":"0000000000000002","trace":"0000000000000001"}},` +
		`{"name":"submit","cat":"round","ph":"X","ts":50,"dur":400,"pid":2,"tid":2,"args":{"parent":"0000000000000002","span":"0000000000000007","trace":"0000000000000001"}},` +
		`{"name":"allocate","cat":"round","ph":"X","ts":200,"dur":300,"pid":1,"tid":1,"args":{"parent":"0000000000000002","span":"0000000000000003","trace":"0000000000000001"}},` +
		`{"name":"straggler_excluded","cat":"event","ph":"i","ts":300,"pid":1,"tid":1,"s":"t","args":{"bidder":"1"}}` +
		`],"displayTimeUnit":"ms"}` + "\n"

	var sb strings.Builder
	if err := WriteChromeTrace(&sb, goldenSpans()); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("chrome trace mismatch\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
	// And it must be valid JSON with the documented shape.
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	if len(decoded.TraceEvents) != 6 {
		t.Fatalf("decoded %d events, want 6", len(decoded.TraceEvents))
	}
}

func TestJSONLAndSummaryExports(t *testing.T) {
	spans := goldenSpans()
	var sb strings.Builder
	if err := WriteTraceSummary(&sb, spans); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"round [auctioneer]", "  submit [bidder-0]", "  allocate [auctioneer]", "· straggler_excluded"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestFlightRecorderDumpsOnTriggers(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(dir, 2, 10*time.Millisecond)

	clean := &RoundTrace{Label: "ok", Duration: time.Millisecond, Spans: goldenSpans()}
	if path, err := fr.Record(clean); err != nil || path != "" {
		t.Fatalf("clean round dumped: path=%q err=%v", path, err)
	}

	failed := &RoundTrace{Label: "quorum fail!", Err: "quorum not reached", Spans: goldenSpans()}
	path, err := fr.Record(failed)
	if err != nil || path == "" {
		t.Fatalf("failed round did not dump: path=%q err=%v", path, err)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "quorum_fail_") {
		t.Fatalf("dump path = %q", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The dump holds the whole ring (clean + failed) as a Chrome trace.
	var decoded struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatalf("dump is not valid chrome trace JSON: %v", err)
	}
	if len(decoded.TraceEvents) == 0 {
		t.Fatalf("dump has no events")
	}

	// SLO trigger.
	slow := &RoundTrace{Label: "slow", Duration: 50 * time.Millisecond, Spans: goldenSpans()}
	if path, err := fr.Record(slow); err != nil || path == "" {
		t.Fatalf("slow round did not dump: path=%q err=%v", path, err)
	}
	// Degraded trigger.
	deg := &RoundTrace{Label: "degraded", Degraded: true, Spans: goldenSpans()}
	if path, err := fr.Record(deg); err != nil || path == "" {
		t.Fatalf("degraded round did not dump: path=%q err=%v", path, err)
	}
	// Ring keeps at most 2.
	if fr.Buffered() != 2 {
		t.Fatalf("buffered = %d, want 2", fr.Buffered())
	}

	var nilFR *FlightRecorder
	if path, err := nilFR.Record(failed); err != nil || path != "" {
		t.Fatalf("nil recorder dumped: %q %v", path, err)
	}
	if nilFR.Buffered() != 0 {
		t.Fatalf("nil recorder buffered != 0")
	}
}
