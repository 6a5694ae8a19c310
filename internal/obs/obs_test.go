package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs_total") != c {
		t.Fatalf("same name should return the same counter handle")
	}

	g := r.Gauge("workers")
	g.Set(8)
	g.Add(-3)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("histogram count = %d, want 4", h.Count())
	}
	if h.Sum() != 555.5 {
		t.Fatalf("histogram sum = %v, want 555.5", h.Sum())
	}
}

func TestLabelsMakeDistinctSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("phase_total", L("phase", "encode"))
	b := r.Counter("phase_total", L("phase", "charge"))
	if a == b {
		t.Fatalf("different labels must be different series")
	}
	a.Add(2)
	b.Add(3)
	snap := r.Snapshot()
	if snap.Counters[`phase_total{phase="encode"}`] != 2 || snap.Counters[`phase_total{phase="charge"}`] != 3 {
		t.Fatalf("snapshot = %+v", snap.Counters)
	}
}

// TestNilRegistryIsInert pins the package contract: a nil registry and
// every handle derived from it are no-ops, never panic, and export empty.
func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c").Inc()
	r.Gauge("g").Set(7)
	r.Histogram("h", nil).Observe(1)
	r.Histogram("h", nil).ObserveDuration(time.Second)
	pt := NewPhases(r, "p", nil, SpanContext{}, nil)
	pt.Phase("encode")
	pt.Phase("charge")
	pt.Stop()
	if got := r.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	snap := r.Snapshot()
	if len(snap.Counters)+len(snap.Gauges)+len(snap.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", snap)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry prometheus output %q, err %v", sb.String(), err)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Counter("n").Inc()
				r.Histogram("h", []float64{0.5}).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := r.Histogram("h", nil).Sum(); got != 8000 {
		t.Fatalf("histogram sum = %v, want 8000", got)
	}
}

func TestPhaseTimerRecordsEachPhaseOnce(t *testing.T) {
	r := NewRegistry()
	pt := NewPhases(r, "round_phase_seconds", nil, SpanContext{}, nil)
	pt.Phase("encode")
	pt.Phase("allocate")
	pt.Stop()
	pt.Phase("charge")
	pt.Stop()
	for _, phase := range []string{"encode", "allocate", "charge"} {
		h := r.Histogram("round_phase_seconds", nil, L("phase", phase))
		if h.Count() != 1 {
			t.Fatalf("phase %s observed %d times, want 1", phase, h.Count())
		}
	}
}

// TestPrometheusGolden pins the exporter's exact text output for a
// deterministic metric state.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("lppa_rounds_total").Add(2)
	r.Counter("lppa_comparisons_total", L("layer", "graph")).Add(41)
	// Escaping: backslash, quote, and newline must be escaped; tab and
	// other bytes must pass through raw (0.0.4 text format).
	r.Counter("lppa_comparisons_total", L("layer", "a\\b\"c\nd\te")).Add(7)
	r.Gauge("lppa_round_workers").Set(4)
	h := r.Histogram("lppa_round_phase_seconds", []float64{0.01, 0.1, 1}, L("phase", "encode"))
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(5)

	want := "# TYPE lppa_comparisons_total counter\n" +
		"lppa_comparisons_total{layer=\"a\\\\b\\\"c\\nd\te\"} 7\n" +
		`lppa_comparisons_total{layer="graph"} 41
# TYPE lppa_round_phase_seconds histogram
lppa_round_phase_seconds_bucket{le="0.01",phase="encode"} 1
lppa_round_phase_seconds_bucket{le="0.1",phase="encode"} 3
lppa_round_phase_seconds_bucket{le="1",phase="encode"} 3
lppa_round_phase_seconds_bucket{le="+Inf",phase="encode"} 4
lppa_round_phase_seconds_sum{phase="encode"} 5.105
lppa_round_phase_seconds_count{phase="encode"} 4
# TYPE lppa_round_workers gauge
lppa_round_workers 4
# TYPE lppa_rounds_total counter
lppa_rounds_total 2
`
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Fatalf("prometheus output mismatch\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

func TestJSONSnapshotRoundTrips(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total").Add(7)
	r.Histogram("h_seconds", []float64{1}).Observe(0.5)
	var sb strings.Builder
	if err := r.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["a_total"] != 7 {
		t.Fatalf("counters = %+v", snap.Counters)
	}
	hs := snap.Histograms["h_seconds"]
	if hs.Count != 1 || len(hs.Buckets) != 2 || hs.Buckets[1].LE != "+Inf" {
		t.Fatalf("histogram snapshot = %+v", hs)
	}
}

func TestHandlerServesBothFormats(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path string) (string, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String(), resp.Header.Get("Content-Type")
	}

	body, ct := get("/metrics")
	if !strings.Contains(body, "x_total 1") || !strings.Contains(ct, "text/plain") {
		t.Fatalf("prometheus endpoint: ct=%q body=%q", ct, body)
	}
	body, ct = get("/vars")
	if !strings.Contains(body, `"x_total": 1`) || !strings.Contains(ct, "application/json") {
		t.Fatalf("json endpoint: ct=%q body=%q", ct, body)
	}
}

// TestHandlerContentNegotiation covers the Accept header paths: an
// explicit JSON or text preference overrides the path default, wildcards
// fall back to it, and an Accept naming neither representation gets 406.
func TestHandlerContentNegotiation(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()

	get := func(path, accept string) (int, string, string) {
		req, err := http.NewRequest("GET", srv.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, resp.Header.Get("Content-Type"), string(b)
	}

	cases := []struct {
		path, accept string
		status       int
		wantCT       string // substring
	}{
		{"/metrics", "", 200, "text/plain"},
		{"/metrics", "application/json", 200, "application/json"},
		{"/metrics", "*/*", 200, "text/plain"},
		{"/metrics", "text/plain;q=0.9, application/json;q=0.1", 200, "text/plain"},
		{"/vars", "", 200, "application/json"},
		{"/vars", "text/plain", 200, "text/plain"},
		{"/vars", "text/*", 200, "text/plain"},
		{"/vars", "*/*", 200, "application/json"},
		{"/metrics", "application/xml", 406, ""},
		{"/vars", "image/png, text/html", 406, ""},
	}
	for _, c := range cases {
		status, ct, body := get(c.path, c.accept)
		if status != c.status {
			t.Fatalf("%s Accept=%q: status %d, want %d (body %q)", c.path, c.accept, status, c.status, body)
		}
		if c.wantCT != "" && !strings.Contains(ct, c.wantCT) {
			t.Fatalf("%s Accept=%q: Content-Type %q, want substring %q", c.path, c.accept, ct, c.wantCT)
		}
		if status == 200 {
			wantBody := "x_total 1"
			if strings.Contains(c.wantCT, "json") {
				wantBody = `"x_total": 1`
			}
			if !strings.Contains(body, wantBody) {
				t.Fatalf("%s Accept=%q: body %q missing %q", c.path, c.accept, body, wantBody)
			}
		}
	}
}
