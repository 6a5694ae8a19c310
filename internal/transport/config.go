package transport

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"sync"
	"time"

	"lppa/internal/obs"
)

// DefaultFrameTimeout bounds reading one frame's body once its length
// prefix has arrived. Tighter than the idle timeout so a slow-loris peer
// trickling a frame byte by byte is dropped within seconds instead of
// holding a handler for the whole idle budget.
const DefaultFrameTimeout = 30 * time.Second

// Config carries the operational knobs shared by TTPServer and
// AuctioneerServer. The zero value is a working default: DefaultIdleTimeout,
// DefaultFrameTimeout, slog.Default(), no telemetry, first-price charging,
// full attendance required.
//
// Prefer assembling a Config through New(...Option), which validates as
// it goes and mirrors round.Run's option style; populating the struct
// literally remains supported as a deprecated shim for existing callers.
type Config struct {
	// IdleTimeout bounds the wait for each next frame on accepted
	// connections; zero means DefaultIdleTimeout.
	IdleTimeout time.Duration
	// FrameTimeout bounds reading one frame's body after its header
	// arrives; zero means DefaultFrameTimeout.
	FrameTimeout time.Duration
	// Logger receives server-side errors; nil means slog.Default().
	Logger *slog.Logger
	// Telemetry is what the server reports through. Its Metrics record
	// connections accepted, wire bytes in/out, per-submission service
	// latency, timeout drops, rejected frames, deduplicated replays,
	// excluded bidders, and — on the auctioneer — round phase timings plus
	// the core comparison counters. Its Tracer records the server's spans:
	// on the auctioneer one root round span (opened when the server starts,
	// with conflict_graph/allocate/charge phase children) plus a
	// recv_submission span per accepted submission that parents onto the
	// sender's wire trace context; on the TTP one span per exchange. Its
	// Flight (auctioneer only, needs the Tracer) keeps every span the
	// tracer finished during the round and auto-dumps when the round
	// fails, degrades below full attendance, or exceeds the recorder's
	// latency SLO. The auctioneer runs one round per server, so share a
	// tracer between rounds only through Named views on the same buffer.
	// The zero value reports nothing at zero cost.
	Telemetry obs.Telemetry
	// SecondPrice switches the auctioneer to clearing-price charging.
	// Ignored by the TTP server.
	SecondPrice bool
	// Quorum is the minimum number of distinct submissions the auctioneer
	// will run a degraded round with when StragglerTimeout fires; zero
	// means all bidders are required. Ignored by the TTP server.
	Quorum int
	// StragglerTimeout bounds the auctioneer's collection phase, measured
	// from server start. When it fires with at least Quorum submissions
	// collected the round proceeds without the stragglers (they are
	// reported in RoundOutcome.Excluded); with fewer, the round fails with
	// round.ErrQuorumNotReached instead of hanging. Zero waits forever,
	// the pre-hardening behavior. Ignored by the TTP server.
	StragglerTimeout time.Duration
	// Admit, when non-nil, gates every accepted connection BEFORE any
	// frame is read or decoded: returning false makes the server answer
	// with one KindRetryAfter frame carrying the returned hint and close
	// the connection, so over-rate peers cost one accept plus one small
	// write instead of a decode. epoch.Admission.AdmitConn is the intended
	// supplier (wired via WithAdmission). Ignored by the TTP server.
	Admit func() (ok bool, retryAfter time.Duration)
	// OnShed, when non-nil, is invoked once per connection Admit turned
	// away, with the retry-after hint sent to the peer — the ops plane's
	// event hook. Called on the accept goroutine; keep it fast. Ignored
	// by the TTP server and without Admit.
	OnShed func(retryAfter time.Duration)
}

func (c Config) idleTimeout() time.Duration {
	if c.IdleTimeout <= 0 {
		return DefaultIdleTimeout
	}
	return c.IdleTimeout
}

func (c Config) frameTimeout() time.Duration {
	if c.FrameTimeout <= 0 {
		return DefaultFrameTimeout
	}
	return c.FrameTimeout
}

func (c Config) logger() *slog.Logger {
	if c.Logger == nil {
		return slog.Default()
	}
	return c.Logger
}

// shutdownServer closes the listener and waits for the server's handlers,
// bounded by ctx. The listener close both stops new accepts and unblocks
// the accept loop; handlers in flight finish their current exchange. On
// ctx expiry the wait is abandoned (the goroutines drain in the
// background) and ctx.Err() is returned.
func shutdownServer(ctx context.Context, markClosed func(), ln net.Listener, wg *sync.WaitGroup) error {
	markClosed()
	err := ln.Close()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// netObs caches one server's transport metric handles, labelled by role
// (ttp or auctioneer). Without a registry every handle is nil and
// discards its updates.
type netObs struct {
	conns       *obs.Counter
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter
	subLat      *obs.Histogram
	timeouts    *obs.Counter
	rejects     *obs.Counter // malformed, duplicate, out of protocol, or outside the collection window
	replays     *obs.Counter // idempotent resubmissions deduplicated by nonce
	excluded    *obs.Counter // bidders dropped from a degraded quorum round
	rateLimited *obs.Counter // connections shed by the admission gate
}

func newNetObs(reg *obs.Registry, role string) netObs {
	l := obs.L("role", role)
	return netObs{
		conns:       reg.Counter("lppa_transport_conns_accepted_total", l),
		bytesIn:     reg.Counter("lppa_transport_bytes_read_total", l),
		bytesOut:    reg.Counter("lppa_transport_bytes_written_total", l),
		subLat:      reg.Histogram("lppa_transport_submission_seconds", nil, l),
		timeouts:    reg.Counter("lppa_transport_timeouts_total", l),
		rejects:     reg.Counter("lppa_transport_frames_rejected_total", l),
		replays:     reg.Counter("lppa_transport_replays_deduped_total", l),
		excluded:    reg.Counter("lppa_transport_bidders_excluded_total", l),
		rateLimited: reg.Counter("lppa_transport_rate_limited_total", l),
	}
}

// accept tallies one accepted connection and returns it wrapped in a
// byte-counting stream for the Conn wrapper.
func (o *netObs) accept(conn net.Conn) io.ReadWriteCloser {
	o.conns.Inc()
	return &countingStream{rw: conn, in: o.bytesIn, out: o.bytesOut}
}

// noteErr tallies a handler error that was a network timeout (an idle peer
// dropped by the per-operation deadline).
func (o *netObs) noteErr(err error) {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		o.timeouts.Inc()
	}
}

// countingStream tallies wire bytes through an accepted stream. It
// implements the deadliner surface by forwarding to the underlying stream
// when supported, so the Conn wrapper's per-operation timeouts keep
// working through the wrap.
type countingStream struct {
	rw      io.ReadWriteCloser
	in, out *obs.Counter
}

func (c *countingStream) Read(p []byte) (int, error) {
	n, err := c.rw.Read(p)
	c.in.Add(uint64(n))
	return n, err
}

func (c *countingStream) Write(p []byte) (int, error) {
	n, err := c.rw.Write(p)
	c.out.Add(uint64(n))
	return n, err
}

func (c *countingStream) Close() error { return c.rw.Close() }

func (c *countingStream) SetReadDeadline(t time.Time) error {
	if d, ok := c.rw.(deadliner); ok {
		return d.SetReadDeadline(t)
	}
	return nil
}

func (c *countingStream) SetWriteDeadline(t time.Time) error {
	if d, ok := c.rw.(deadliner); ok {
		return d.SetWriteDeadline(t)
	}
	return nil
}
