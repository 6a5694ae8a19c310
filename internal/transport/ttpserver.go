package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"lppa/internal/core"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/ttp"
)

// TTPServer serves the trusted third party over a listener: bidders fetch
// the round's key ring, the auctioneer submits charge batches. The server
// owns its accept goroutine; Close stops it and waits for in-flight
// connections.
type TTPServer struct {
	params core.Params
	ring   *mask.KeyRing
	ttp    *ttp.TTP
	ln     net.Listener
	log    *slog.Logger
	// idleTimeout bounds the wait for each next frame on accepted
	// connections; frameTimeout bounds reading one frame body
	// (DefaultIdleTimeout / DefaultFrameTimeout when zero at construction).
	idleTimeout  time.Duration
	frameTimeout time.Duration
	ob           netObs
	tracer       *obs.Tracer

	wg     sync.WaitGroup
	mu     sync.Mutex
	closed bool
}

// NewTTPServerWithConfig creates the TTP party and starts serving on ln
// under cfg's operational configuration (timeouts, logger, metrics,
// tracing). The key ring is derived from seed for reproducible
// experiments; production deployments pass a random seed.
func NewTTPServerWithConfig(params core.Params, seed []byte, rd, cr uint64, ln net.Listener, cfg Config) (*TTPServer, error) {
	ring, err := mask.DeriveKeyRing(seed, params.Channels, rd, cr)
	if err != nil {
		return nil, fmt.Errorf("transport: ttp key ring: %w", err)
	}
	trusted, err := ttp.FromRing(params, ring, rand.New(rand.NewSource(int64(len(seed))+1)))
	if err != nil {
		return nil, err
	}
	s := &TTPServer{
		params:       params,
		ring:         ring,
		ttp:          trusted,
		ln:           ln,
		log:          cfg.logger(),
		idleTimeout:  cfg.idleTimeout(),
		frameTimeout: cfg.frameTimeout(),
		ob:           newNetObs(cfg.Telemetry.Metrics, "ttp"),
		tracer:       cfg.Telemetry.Tracer,
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listen address.
func (s *TTPServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server and waits for connection handlers to finish.
func (s *TTPServer) Close() error {
	return s.Shutdown(context.Background())
}

// Shutdown stops accepting, closes the listener, and waits for in-flight
// connection handlers to drain, bounded by ctx. On ctx expiry the handlers
// keep draining in the background and ctx.Err() is returned.
func (s *TTPServer) Shutdown(ctx context.Context) error {
	return shutdownServer(ctx, func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}, s.ln, &s.wg)
}

func (s *TTPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed && !errors.Is(err, net.ErrClosed) {
				s.log.Error("ttp accept", "err", err)
			}
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handle(NewConnTimeouts(s.ob.accept(conn), s.idleTimeout, s.frameTimeout))
		}()
	}
}

// serveSpan opens a span for one TTP exchange, parented onto the
// requester's wire trace context when the frame carried one. Returns nil
// (a no-op span) when tracing is off.
func (s *TTPServer) serveSpan(name string, c *Conn) *obs.Span {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.StartSpan(name, c.LastTrace().SpanContext())
}

func (s *TTPServer) handle(c *Conn) {
	defer c.Close()
	for {
		env, err := c.RecvEnvelope()
		if err != nil {
			s.ob.noteErr(err)
			return // peer closed, timed out, or broke protocol; nothing to answer
		}
		switch env.Kind {
		case KindKeyRingRequest:
			var req struct{}
			if err := c.RecvPayload(&req); err != nil {
				s.ob.rejects.Inc()
				return
			}
			span := s.serveSpan("serve_keyring", c)
			err := c.Send(KindKeyRingReply, RingToWire(s.ring))
			span.End()
			if err != nil {
				s.log.Error("ttp send key ring", "err", err)
				return
			}
		case KindChargeBatch:
			var batch ChargeBatch
			if err := c.RecvPayload(&batch); err != nil {
				s.ob.rejects.Inc()
				return
			}
			span := s.serveSpan("serve_charges", c)
			if err := batch.Validate(); err != nil {
				s.ob.rejects.Inc()
				s.log.Error("ttp: malformed charge batch", "err", err)
				span.SetError(err.Error())
				span.End()
				_ = c.Send(KindError, ErrorMsg{Reason: err.Error()})
				return
			}
			results := s.ttp.ProcessBatch(batch.Requests)
			err := c.Send(KindChargeReply, ChargeReply{Results: ChargeResultsToWire(results)})
			span.End()
			if err != nil {
				s.log.Error("ttp send charges", "err", err)
				return
			}
		default:
			s.ob.rejects.Inc()
			_ = c.Send(KindError, ErrorMsg{Reason: fmt.Sprintf("unexpected message kind %d", env.Kind)})
			return
		}
	}
}

// FetchKeyRing retrieves the round key ring from a TTP server (bidder
// side).
func FetchKeyRing(addr string) (*mask.KeyRing, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial ttp: %w", err)
	}
	c := NewConn(conn)
	defer c.Close()
	if err := c.Send(KindKeyRingRequest, struct{}{}); err != nil {
		return nil, err
	}
	var reply KeyRingReply
	if err := c.Expect(KindKeyRingReply, &reply); err != nil {
		return nil, err
	}
	return reply.ToRing(), nil
}

// submitChargesRetry is SubmitCharges with simple capped exponential
// backoff: the TTP is infrastructure the auctioneer operator controls, so
// a short blip (restart, connection reset) should not void a whole round
// of collected submissions. Permanent peer rejections are not retried.
func submitChargesRetry(addr string, reqs []core.ChargeRequest, attempts int, base time.Duration) ([]WireChargeResult, error) {
	if attempts < 1 {
		attempts = 1
	}
	var last error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			time.Sleep(base << (attempt - 1))
		}
		res, err := SubmitCharges(addr, reqs)
		if err == nil {
			return res, nil
		}
		var pe *PeerError
		if errors.As(err, &pe) && !pe.Retryable {
			return nil, err
		}
		last = err
	}
	return nil, fmt.Errorf("transport: submit charges failed after %d attempts: %w", attempts, last)
}

// SubmitCharges sends a charge batch to the TTP (auctioneer side).
func SubmitCharges(addr string, reqs []core.ChargeRequest) ([]WireChargeResult, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial ttp: %w", err)
	}
	c := NewConn(conn)
	defer c.Close()
	if err := c.Send(KindChargeBatch, ChargeBatch{Requests: reqs}); err != nil {
		return nil, err
	}
	var reply ChargeReply
	if err := c.Expect(KindChargeReply, &reply); err != nil {
		return nil, err
	}
	return reply.Results, nil
}
