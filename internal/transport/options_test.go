package transport

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/obs"
)

func TestNewZeroOptionsIsZeroConfig(t *testing.T) {
	cfg, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.idleTimeout() != DefaultIdleTimeout || cfg.frameTimeout() != DefaultFrameTimeout {
		t.Errorf("zero-option config timeouts = %v/%v, want defaults", cfg.idleTimeout(), cfg.frameTimeout())
	}
	if cfg.SecondPrice || cfg.Quorum != 0 || cfg.Admit != nil || cfg.Telemetry.Metrics != nil {
		t.Errorf("zero-option config not zero: %+v", cfg)
	}
}

func TestNewAssemblesConfig(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer("opts-test")
	fr := obs.NewFlightRecorder(t.TempDir(), 2, 0)
	log := quietLogger()
	gate := func() (bool, time.Duration) { return true, 0 }
	cfg, err := New(
		WithIdleTimeout(3*time.Second),
		WithFrameTimeout(time.Second),
		WithLogger(log),
		WithTelemetry(obs.Telemetry{Metrics: reg, Tracer: tr, Flight: fr}),
		WithSecondPriceCharging(),
		WithQuorum(2),
		WithStragglerTimeout(5*time.Second),
		WithAdmission(gate),
	)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.IdleTimeout != 3*time.Second || cfg.FrameTimeout != time.Second {
		t.Errorf("timeouts = %v/%v", cfg.IdleTimeout, cfg.FrameTimeout)
	}
	if tel := cfg.Telemetry; cfg.Logger != log || tel.Metrics != reg || tel.Tracer != tr || tel.Flight != fr {
		t.Error("handles not threaded through")
	}
	if !cfg.SecondPrice || cfg.Quorum != 2 || cfg.StragglerTimeout != 5*time.Second {
		t.Errorf("round knobs = %v/%d/%v", cfg.SecondPrice, cfg.Quorum, cfg.StragglerTimeout)
	}
	if cfg.Admit == nil {
		t.Fatal("admission gate not set")
	}
	if ok, _ := cfg.Admit(); !ok {
		t.Error("admission gate not the one supplied")
	}
}

func TestNewRejectsInvalidOptions(t *testing.T) {
	cases := []struct {
		name string
		opt  Option
	}{
		{"idle zero", WithIdleTimeout(0)},
		{"idle negative", WithIdleTimeout(-time.Second)},
		{"frame zero", WithFrameTimeout(0)},
		{"quorum zero", WithQuorum(0)},
		{"straggler zero", WithStragglerTimeout(0)},
		{"admission nil", WithAdmission(nil)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.opt); err == nil {
				t.Fatalf("New(%s) accepted", tc.name)
			}
		})
	}
}

func TestNewFlightRecorderRequiresTrace(t *testing.T) {
	tr := obs.NewTracer("fr-test")
	fr := obs.NewFlightRecorder(t.TempDir(), 2, 0)
	if _, err := New(WithTelemetry(obs.Telemetry{Flight: fr})); err == nil {
		t.Fatal("flight recorder accepted without a tracer")
	}
	if _, err := New(WithTelemetry(obs.Telemetry{Tracer: tr, Flight: fr})); err != nil {
		t.Fatalf("tracer + recorder rejected: %v", err)
	}
}

// TestAdmissionShedsConnPreDecode pins the accept-path contract directly:
// a gated server answers a fresh connection with one KindRetryAfter frame
// carrying the gate's hint — surfaced by Conn.Expect as *RetryAfterError —
// before reading anything the peer sent.
func TestAdmissionShedsConnPreDecode(t *testing.T) {
	p := testParams()
	log := quietLogger()
	ttpSrv, err := NewTTPServerWithConfig(p, []byte("shed"), 3, 4, listen(t), Config{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()

	const hint = 123 * time.Millisecond
	cfg, err := New(
		WithLogger(log),
		WithAdmission(func() (bool, time.Duration) { return false, hint }),
	)
	if err != nil {
		t.Fatal(err)
	}
	aucSrv, err := NewAuctioneerServerWithConfig(p, 1, ttpSrv.Addr().String(), listen(t), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	conn, err := net.Dial("tcp", aucSrv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := NewConnTimeout(conn, 5*time.Second)
	defer c.Close()
	var ack struct{}
	err = c.Expect(KindSubmissionAck, &ack)
	var ra *RetryAfterError
	if !errors.As(err, &ra) {
		t.Fatalf("Expect error = %v, want *RetryAfterError", err)
	}
	if ra.RetryAfter != hint {
		t.Errorf("retry-after hint = %v, want %v", ra.RetryAfter, hint)
	}
}

// TestAdmissionEndToEnd runs a real round through a rate-limiting gate: the
// first connection is shed with a retry-after hint, the bidder client backs
// off at least that long and the retry is admitted, so the round still
// completes. The shed is visible in lppa_transport_rate_limited_total.
func TestAdmissionEndToEnd(t *testing.T) {
	p := testParams()
	log := quietLogger()
	reg := obs.NewRegistry()

	ttpSrv, err := NewTTPServerWithConfig(p, []byte("e2e-admission"), 3, 4, listen(t), Config{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()

	const hint = 60 * time.Millisecond
	var mu sync.Mutex
	rejected := 0
	gate := func() (bool, time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		if rejected == 0 {
			rejected++
			return false, hint
		}
		return true, 0
	}
	cfg, err := New(WithLogger(log), WithTelemetry(obs.Telemetry{Metrics: reg}), WithAdmission(gate))
	if err != nil {
		t.Fatal(err)
	}
	aucSrv, err := NewAuctioneerServerWithConfig(p, 1, ttpSrv.Addr().String(), listen(t), 9, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	b := &BidderClient{
		ID:     0,
		Params: p,
		Policy: core.DisguisePolicy{P0: 1},
		Retry:  RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond},
	}
	start := time.Now()
	res, err := b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
		geo.Point{X: 7, Y: 7}, []uint64{9, 0, 3, 1}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatalf("participate through gate: %v", err)
	}
	if res == nil || !res.Won {
		t.Fatalf("sole bidder result = %+v, want a win", res)
	}
	// The server's hint is the backoff floor: the retry cannot have fired
	// before the gate's window elapsed.
	if elapsed := time.Since(start); elapsed < hint {
		t.Errorf("retried after %v, before the %v hint", elapsed, hint)
	}
	mu.Lock()
	if rejected != 1 {
		t.Errorf("gate rejected %d conns, want 1", rejected)
	}
	mu.Unlock()
	if got := reg.Counter("lppa_transport_rate_limited_total", obs.L("role", "auctioneer")).Value(); got != 1 {
		t.Errorf("lppa_transport_rate_limited_total = %d, want 1", got)
	}
	if out := aucSrv.Wait(); out == nil || len(out.Results) != 1 {
		t.Fatalf("outcome = %+v, want one result", out)
	}
}
