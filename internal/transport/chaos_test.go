package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/faults"
	"lppa/internal/geo"
	"lppa/internal/obs"
	"lppa/internal/round"
)

// chaosWatchdog bounds a whole chaos round: fault injection must never
// turn a failure into a hang. Generous because CI runs these under -race.
const chaosWatchdog = 60 * time.Second

// chaosSeeds returns the fixed CI seeds plus any extras from
// LPPA_CHAOS_SEEDS (comma-separated), the knob used to replay a failure
// seed uploaded from a CI artifact.
func chaosSeeds(t *testing.T) []int64 {
	seeds := []int64{1, 2}
	if env := os.Getenv("LPPA_CHAOS_SEEDS"); env != "" {
		for _, tok := range strings.Split(env, ",") {
			s, err := strconv.ParseInt(strings.TrimSpace(tok), 10, 64)
			if err != nil {
				t.Fatalf("LPPA_CHAOS_SEEDS entry %q: %v", tok, err)
			}
			seeds = append(seeds, s)
		}
	}
	return seeds
}

// recordChaosFailure appends a replay line to LPPA_CHAOS_REPLAY_FILE (CI
// uploads it as an artifact) so any red chaos run can be reproduced with
// LPPA_CHAOS_SEEDS=<seed> go test -run TestChaosMatrix/<class>.
func recordChaosFailure(t *testing.T, class string, seed int64) {
	path := os.Getenv("LPPA_CHAOS_REPLAY_FILE")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("chaos replay file: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprintf(f, "class=%s seed=%d test=%s\n", class, seed, t.Name())
}

// chaosOutcome is everything one chaos round produced.
type chaosOutcome struct {
	outcome    *RoundOutcome
	outcomeErr error
	results    []*Result
	errs       []error
}

// runChaosRound runs a full networked round of n bidders where faulty
// bidders' outbound connections go through the injector. It fails the
// test (instead of hanging) if the round outlives the watchdog.
func runChaosRound(t *testing.T, seed int64, n int, faulty map[int]faults.Config, firstConnOnly bool, srvCfg Config) chaosOutcome {
	t.Helper()
	p := testParams()
	log := quietLogger()
	ttpSrv, err := NewTTPServerWithConfig(p, []byte("chaos"), 3, 4, listen(t), Config{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()
	srvCfg.Logger = log
	aucSrv, err := NewAuctioneerServerWithConfig(p, n, ttpSrv.Addr().String(), listen(t), seed, srvCfg)
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	rng := rand.New(rand.NewSource(seed))
	points := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(int(p.MaxX))), Y: uint64(rng.Intn(int(p.MaxY)))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
		}
	}

	out := chaosOutcome{results: make([]*Result, n), errs: make([]error, n)}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := &BidderClient{
				ID: i, Params: p, Policy: core.DisguisePolicy{P0: 1},
				Timeout:      500 * time.Millisecond,
				AwaitTimeout: 30 * time.Second,
				Retry:        RetryPolicy{MaxAttempts: 6, BaseDelay: 10 * time.Millisecond, MaxDelay: 200 * time.Millisecond},
			}
			if cfg, ok := faulty[i]; ok {
				// Per-bidder seed: the schedule replays for this bidder no
				// matter how goroutines interleave. firstConnOnly injects on
				// the first auctioneer connection alone — "crash once after
				// submitting, restart clean".
				aucAddr := aucSrv.Addr().String()
				var dials int
				var mu sync.Mutex
				b.Dial = func(network, addr string) (net.Conn, error) {
					conn, err := net.DialTimeout(network, addr, b.Timeout)
					if err != nil {
						return nil, err
					}
					if firstConnOnly && addr != aucAddr {
						return conn, nil
					}
					mu.Lock()
					dials++
					k := dials
					mu.Unlock()
					if firstConnOnly && k > 1 {
						return conn, nil
					}
					return faults.Wrap(conn, seed^int64(1000+i*7+k), cfg), nil
				}
			}
			out.results[i], out.errs[i] = b.Participate(
				ttpSrv.Addr().String(), aucSrv.Addr().String(),
				points[i], bids[i], rand.New(rand.NewSource(seed*100+int64(i))))
		}(i)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		out.outcome, out.outcomeErr = aucSrv.Outcome()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(chaosWatchdog):
		t.Fatalf("chaos round hung past %v (seed %d)", chaosWatchdog, seed)
	}
	return out
}

// TestChaosMatrix drives a full networked round under each fault class at
// fixed seeds. The invariant under every class: the round terminates —
// either completing (possibly degraded to quorum, with the stragglers
// reported) or failing with a typed error — and clean bidders always come
// out whole.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix skipped in -short")
	}
	const n = 4
	classes := []struct {
		name          string
		cfg           faults.Config
		firstConnOnly bool
		srvCfg        Config
	}{
		{name: "drop", cfg: faults.Config{DropFrame: 0.5}},
		{name: "dup", cfg: faults.Config{DupFrame: 0.5}},
		{name: "corrupt", cfg: faults.Config{CorruptFrame: 0.5}},
		{name: "truncate", cfg: faults.Config{TruncateFrame: 0.5}},
		{name: "delay", cfg: faults.Config{DelayProb: 0.8, MaxDelay: 150 * time.Millisecond}},
		{name: "slowloris",
			cfg:    faults.Config{SlowChunk: 256, SlowPause: 150 * time.Millisecond},
			srvCfg: Config{FrameTimeout: 300 * time.Millisecond}},
		{name: "crash", cfg: faults.Config{CloseAfterFrames: 1}, firstConnOnly: true},
	}
	for _, class := range classes {
		class := class
		t.Run(class.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range chaosSeeds(t) {
				srvCfg := class.srvCfg
				srvCfg.Quorum = 2
				srvCfg.StragglerTimeout = 5 * time.Second
				srvCfg.IdleTimeout = 3 * time.Second
				// Bidders 0 and 1 are faulty; 2 and 3 are clean.
				out := runChaosRound(t, seed, n,
					map[int]faults.Config{0: class.cfg, 1: class.cfg}, class.firstConnOnly, srvCfg)

				if out.outcomeErr != nil {
					// Clean bidders guarantee the quorum of 2; any failure is
					// a real bug, and its seed is worth keeping.
					t.Errorf("seed %d: round failed: %v", seed, out.outcomeErr)
				} else {
					excluded := map[int]bool{}
					for _, id := range out.outcome.Excluded {
						excluded[id] = true
					}
					for i := 2; i < n; i++ {
						if excluded[i] {
							t.Errorf("seed %d: clean bidder %d excluded", seed, i)
						}
						if out.errs[i] != nil {
							t.Errorf("seed %d: clean bidder %d failed: %v", seed, i, out.errs[i])
						}
						if out.results[i] == nil {
							t.Errorf("seed %d: clean bidder %d got no result", seed, i)
						}
					}
					for i := 0; i < 2; i++ {
						// A faulty bidder either made it into the round or was
						// excluded and saw an error — never silent limbo.
						if excluded[i] && out.errs[i] == nil && out.results[i] != nil {
							t.Errorf("seed %d: bidder %d excluded yet holds a result", seed, i)
						}
						if !excluded[i] && out.errs[i] == nil && out.results[i] == nil {
							t.Errorf("seed %d: bidder %d neither failed nor got a result", seed, i)
						}
					}
				}
				if t.Failed() {
					recordChaosFailure(t, class.name, seed)
					return
				}
			}
		})
	}
}

// TestChaosBidderCrashRestart pins the idempotent-resubmission path
// deterministically: a bidder whose connection dies right after the
// submission frame is delivered (crash after submit) retries with the same
// nonce, is recognized as a replay — not a duplicate — and still receives
// its result. Nobody is excluded.
func TestChaosBidderCrashRestart(t *testing.T) {
	const n = 3
	reg := obs.NewRegistry()
	out := runChaosRound(t, 11, n,
		map[int]faults.Config{0: {CloseAfterFrames: 1}}, true,
		Config{Metrics: reg, IdleTimeout: 3 * time.Second})
	if out.outcomeErr != nil {
		t.Fatalf("round failed: %v", out.outcomeErr)
	}
	if len(out.outcome.Excluded) != 0 {
		t.Fatalf("Excluded = %v, want none (replay must rescue the crashed bidder)", out.outcome.Excluded)
	}
	for i := 0; i < n; i++ {
		if out.errs[i] != nil {
			t.Errorf("bidder %d: %v", i, out.errs[i])
		}
		if out.results[i] == nil {
			t.Errorf("bidder %d got no result", i)
		}
	}
	if got := reg.Snapshot().Counters[`lppa_transport_replays_deduped_total{role="auctioneer"}`]; got < 1 {
		t.Errorf("replays counter = %d, want >= 1", got)
	}
}

// TestChaosKilledBidderDoesNotHangRound is the acceptance scenario
// verbatim: one bidder dies mid-round (its every frame truncates) and
// never comes back. Before the hardening the auctioneer waited forever;
// now the straggler timeout degrades the round to quorum and reports the
// body.
func TestChaosKilledBidderDoesNotHangRound(t *testing.T) {
	const n = 3
	reg := obs.NewRegistry()
	out := runChaosRound(t, 21, n,
		map[int]faults.Config{0: {TruncateFrame: 1}}, false,
		Config{Quorum: 2, StragglerTimeout: 2 * time.Second, IdleTimeout: 3 * time.Second, Metrics: reg})
	if out.outcomeErr != nil {
		t.Fatalf("round failed instead of degrading: %v", out.outcomeErr)
	}
	if len(out.outcome.Excluded) != 1 || out.outcome.Excluded[0] != 0 {
		t.Fatalf("Excluded = %v, want [0]", out.outcome.Excluded)
	}
	if out.errs[0] == nil {
		t.Error("killed bidder reported success")
	}
	for i := 1; i < n; i++ {
		if out.errs[i] != nil || out.results[i] == nil {
			t.Errorf("surviving bidder %d: err=%v result=%v", i, out.errs[i], out.results[i])
		}
	}
	if got := reg.Snapshot().Counters[`lppa_transport_bidders_excluded_total{role="auctioneer"}`]; got != 1 {
		t.Errorf("excluded counter = %d, want 1", got)
	}
}

// TestAuctioneerQuorumNotReached: when the straggler deadline fires with
// fewer than Quorum submissions the round fails with the shared typed
// sentinel instead of hanging.
func TestAuctioneerQuorumNotReached(t *testing.T) {
	p := testParams()
	ttpSrv, err := NewTTPServerWithConfig(p, []byte("nq"), 3, 4, listen(t), Config{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()
	aucSrv, err := NewAuctioneerServerWithConfig(p, 3, ttpSrv.Addr().String(), listen(t), 1,
		Config{Logger: quietLogger(), Quorum: 2, StragglerTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	// Only one bidder of three ever shows up.
	errCh := make(chan error, 1)
	go func() {
		b := &BidderClient{ID: 0, Params: p, Policy: core.DisguisePolicy{P0: 1},
			Timeout: time.Second, AwaitTimeout: 10 * time.Second}
		_, err := b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
			geo.Point{X: 1, Y: 1}, []uint64{1, 2, 3, 4}, rand.New(rand.NewSource(1)))
		errCh <- err
	}()

	outcomeCh := make(chan error, 1)
	go func() {
		_, err := aucSrv.Outcome()
		outcomeCh <- err
	}()
	select {
	case err := <-outcomeCh:
		if !errors.Is(err, round.ErrQuorumNotReached) {
			t.Fatalf("outcome err = %v, want ErrQuorumNotReached", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("under-quorum round hung")
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Error("lone bidder reported success from a failed round")
		}
	case <-time.After(15 * time.Second):
		t.Fatal("lone bidder hung after round failure")
	}
}
