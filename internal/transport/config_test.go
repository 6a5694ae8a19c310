package transport

import (
	"context"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/obs"
)

// TestShutdownDrains covers the context-aware drain: an idle server shuts
// down immediately; a server with a stalled in-flight connection times the
// drain out on the context, and completes once the peer goes away.
func TestShutdownDrains(t *testing.T) {
	p := testParams()
	srv, err := NewTTPServerWithConfig(p, []byte("sd-1"), 3, 4, listen(t), Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}

	srv2, err := NewTTPServerWithConfig(p, []byte("sd-2"), 3, 4, listen(t), Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	// A connected-but-silent peer pins its handler in RecvEnvelope.
	conn, err := net.Dial("tcp", srv2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	// Give the accept loop time to hand the connection off.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := srv2.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("stalled shutdown err = %v, want context.DeadlineExceeded", err)
	}
	conn.Close()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := srv2.Shutdown(ctx2); err == context.DeadlineExceeded {
		t.Fatal("shutdown did not drain after peer closed")
	}
}

// TestAuctioneerShutdown covers the same drain path on the auctioneer
// server.
func TestAuctioneerShutdown(t *testing.T) {
	p := testParams()
	srv, err := NewAuctioneerServerWithConfig(p, 3, "127.0.0.1:1", listen(t), 1, Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestIdleTimeoutConfigured pins the fix for the auctioneer ignoring its
// configured timeout at the accept site: with a short configured
// IdleTimeout, a silent bidder connection must be dropped (and counted)
// instead of pinning the round for DefaultIdleTimeout.
func TestIdleTimeoutConfigured(t *testing.T) {
	p := testParams()
	reg := obs.NewRegistry()
	srv, err := NewAuctioneerServerWithConfig(p, 1, "127.0.0.1:1", listen(t), 1,
		Config{Logger: quietLogger(), IdleTimeout: 50 * time.Millisecond, Telemetry: obs.Telemetry{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if reg.Counter("lppa_transport_timeouts_total", obs.L("role", "auctioneer")).Value() > 0 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("silent connection never timed out under configured IdleTimeout")
}

// TestNetworkedRoundMetrics runs a full instrumented round over TCP and
// checks the transport and phase metrics a production scrape would see.
func TestNetworkedRoundMetrics(t *testing.T) {
	p := testParams()
	const n = 4
	reg := obs.NewRegistry()
	log := quietLogger()

	ttpSrv, err := NewTTPServerWithConfig(p, []byte("metrics-round"), 3, 4, listen(t), Config{Logger: log, Telemetry: obs.Telemetry{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()
	aucSrv, err := NewAuctioneerServerWithConfig(p, n, ttpSrv.Addr().String(), listen(t), 7, Config{Logger: log, Telemetry: obs.Telemetry{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	points := []geo.Point{{X: 10, Y: 10}, {X: 11, Y: 10}, {X: 40, Y: 40}, {X: 5, Y: 45}}
	bids := [][]uint64{{10, 0, 3, 7}, {20, 5, 0, 9}, {50, 50, 50, 50}, {30, 0, 40, 2}}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &BidderClient{ID: i, Params: p, Policy: core.DisguisePolicy{P0: 0.8, Decay: 0.9}}
			if _, err := b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
				points[i], bids[i], rand.New(rand.NewSource(int64(100+i)))); err != nil {
				t.Errorf("bidder %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if aucSrv.Wait() == nil {
		t.Fatal("no outcome")
	}

	aucConns := reg.Counter("lppa_transport_conns_accepted_total", obs.L("role", "auctioneer")).Value()
	if aucConns != n {
		t.Errorf("auctioneer conns accepted = %d, want %d", aucConns, n)
	}
	if reg.Counter("lppa_transport_conns_accepted_total", obs.L("role", "ttp")).Value() == 0 {
		t.Error("ttp accepted no connections")
	}
	for _, role := range []string{"ttp", "auctioneer"} {
		if reg.Counter("lppa_transport_bytes_read_total", obs.L("role", role)).Value() == 0 {
			t.Errorf("%s read no wire bytes", role)
		}
		if reg.Counter("lppa_transport_bytes_written_total", obs.L("role", role)).Value() == 0 {
			t.Errorf("%s wrote no wire bytes", role)
		}
	}
	if got := reg.Histogram("lppa_transport_submission_seconds", nil, obs.L("role", "auctioneer")).Count(); got != n {
		t.Errorf("submission latency observations = %d, want %d", got, n)
	}
	for _, phase := range []string{"conflict_graph", "allocate", "charge"} {
		if got := reg.Histogram("lppa_round_phase_seconds", nil, obs.L("phase", phase)).Count(); got != 1 {
			t.Errorf("phase %q observed %d times, want 1", phase, got)
		}
	}
	if reg.Counter("lppa_auctioneer_comparisons_total").Value() == 0 {
		t.Error("no auctioneer comparisons counted on the networked path")
	}
}
