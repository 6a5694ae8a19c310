package transport

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"lppa/internal/core"
	"lppa/internal/obs"
	"lppa/internal/round"
	"lppa/internal/ttp"
)

// DefaultIdleTimeout bounds the wait for each next frame on server-side
// connections: a stalled bidder cannot pin a round forever. Results are
// pushed on idle connections after the round completes, so the timeout
// must comfortably exceed one full round.
const DefaultIdleTimeout = 5 * time.Minute

// roundState tracks the auctioneer's single-round lifecycle.
type roundState int

const (
	// stateCollecting accepts and stores submissions.
	stateCollecting roundState = iota
	// stateRunning is the auction compute window; resubmissions are asked
	// to retry shortly.
	stateRunning
	// stateDone redelivers stored results to nonce-matching resubmissions
	// (a bidder that crashed after submitting and restarted).
	stateDone
	// stateFailed rejects everything with the failure reason.
	stateFailed
)

// AuctioneerServer collects masked submissions from a fixed population of
// bidders over a listener, runs the private auction, settles charges with
// the TTP, and pushes each bidder its result on the same connection.
//
// Run one instance per auction round. The server never holds key material.
//
// The server survives a hostile network: frames are length-capped and
// deadline-bounded, resubmissions are deduplicated by (bidder, nonce) so a
// retrying client is idempotent, and — when Config.StragglerTimeout is set
// — a crashed bidder degrades the round to the configured quorum instead
// of hanging it.
type AuctioneerServer struct {
	params  core.Params
	bidders int
	quorum  int
	ttpAddr string
	ln      net.Listener
	log     *slog.Logger
	rng     *rand.Rand
	// secondPrice switches charging to the clearing-price rule.
	secondPrice  bool
	idleTimeout  time.Duration
	frameTimeout time.Duration
	straggler    time.Duration
	admit        func() (bool, time.Duration)
	onShed       func(time.Duration)
	reg          *obs.Registry
	ob           netObs
	tracer       *obs.Tracer
	flight       *obs.FlightRecorder
	// root is the round's root span (nil when untraced); recv_submission
	// spans and phase spans hang off it unless the sender supplied its
	// own wire trace context.
	root *obs.Span

	// wg tracks the acceptor, the coordinator, and every live handler;
	// Shutdown waits on it. Round completion is signaled by done instead,
	// because the acceptor keeps serving replays until the listener closes.
	wg sync.WaitGroup
	// arrived nudges the coordinator that a new submission landed.
	arrived chan struct{}
	// stop aborts the coordinator's collection wait on Shutdown.
	stop     chan struct{}
	stopOnce sync.Once

	mu         sync.Mutex
	closed     bool
	state      roundState
	failReason string
	subs       map[int]Submission
	conns      map[int]*Conn
	results    map[int]Result

	// done closes when the round reaches stateDone or stateFailed; outcome
	// and err are written before the close.
	done    chan struct{}
	outcome *RoundOutcome
	err     error
}

// RoundOutcome summarizes the finished round on the auctioneer side.
type RoundOutcome struct {
	Results []Result
	Revenue uint64
	Voided  int
	// Excluded lists bidder ids (ascending) whose submissions never
	// arrived before a quorum round proceeded without them.
	Excluded []int
}

// NewAuctioneerServerWithConfig starts the auctioneer for one round of
// exactly bidders participants (fewer under cfg's quorum rules), seeding
// its allocator with seed. cfg carries the operational configuration —
// timeouts, quorum, logger, metrics, tracing, charging rule — and its
// zero value is first-price charging with default timeouts; build one
// with New.
func NewAuctioneerServerWithConfig(params core.Params, bidders int, ttpAddr string, ln net.Listener, seed int64, cfg Config) (*AuctioneerServer, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if bidders < 1 {
		return nil, fmt.Errorf("transport: need at least one bidder")
	}
	quorum := cfg.Quorum
	if quorum == 0 {
		quorum = bidders
	}
	if quorum < 1 || quorum > bidders {
		return nil, fmt.Errorf("transport: quorum %d outside [1, %d]", cfg.Quorum, bidders)
	}
	s := &AuctioneerServer{
		params:       params,
		bidders:      bidders,
		quorum:       quorum,
		ttpAddr:      ttpAddr,
		ln:           ln,
		log:          cfg.logger(),
		rng:          rand.New(rand.NewSource(seed)),
		secondPrice:  cfg.SecondPrice,
		idleTimeout:  cfg.idleTimeout(),
		frameTimeout: cfg.frameTimeout(),
		straggler:    cfg.StragglerTimeout,
		admit:        cfg.Admit,
		onShed:       cfg.OnShed,
		reg:          cfg.Metrics,
		ob:           newNetObs(cfg.Metrics, "auctioneer"),
		tracer:       cfg.Tracer,
		flight:       cfg.FlightRecorder,
		arrived:      make(chan struct{}, 1),
		stop:         make(chan struct{}),
		subs:         make(map[int]Submission, bidders),
		conns:        make(map[int]*Conn, bidders),
		done:         make(chan struct{}),
	}
	if s.tracer != nil {
		s.root = s.tracer.StartTrace("round",
			obs.L("bidders", strconv.Itoa(bidders)),
			obs.L("channels", strconv.Itoa(params.Channels)))
	}
	s.wg.Add(2)
	go s.acceptLoop()
	go s.coordinate()
	return s, nil
}

// Addr returns the listen address.
func (s *AuctioneerServer) Addr() net.Addr { return s.ln.Addr() }

// Close shuts the listener and waits for handlers.
func (s *AuctioneerServer) Close() error {
	return s.Shutdown(context.Background())
}

// Shutdown stops accepting, closes the listener, and waits for in-flight
// handlers to drain, bounded by ctx. On ctx expiry the handlers keep
// draining in the background and ctx.Err() is returned.
func (s *AuctioneerServer) Shutdown(ctx context.Context) error {
	return shutdownServer(ctx, func() {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.stopOnce.Do(func() { close(s.stop) })
	}, s.ln, &s.wg)
}

// Wait blocks until the round completes and returns the outcome, nil if
// the round failed. Outcome additionally reports why.
func (s *AuctioneerServer) Wait() *RoundOutcome {
	o, _ := s.Outcome()
	return o
}

// Outcome blocks until the round completes and returns the outcome or the
// failure. A quorum shortfall is reported as round.ErrQuorumNotReached
// (wrapped).
func (s *AuctioneerServer) Outcome() (*RoundOutcome, error) {
	<-s.done
	return s.outcome, s.err
}

// acceptLoop admits connections until the listener closes. Unlike the
// pre-hardening server it never stops at the population size: a retrying
// bidder opens a fresh connection per attempt, and a restarted bidder may
// reconnect after the round completed to collect its result.
func (s *AuctioneerServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if !closed && !errors.Is(err, net.ErrClosed) {
				s.log.Error("auctioneer accept", "err", err)
			}
			return
		}
		// Admission control sits here, before the handler spawns and long
		// before any frame is read: an over-rate peer costs the accept, one
		// small retry-after write, and nothing else — no decode work, no
		// handler goroutine parked on the idle timeout.
		if s.admit != nil {
			if ok, retry := s.admit(); !ok {
				s.ob.rateLimited.Inc()
				if s.onShed != nil {
					s.onShed(retry)
				}
				s.wg.Add(1)
				go func() {
					defer s.wg.Done()
					c := NewConnTimeouts(s.ob.accept(conn), s.idleTimeout, s.frameTimeout)
					_ = c.Send(KindRetryAfter, RetryAfterMsg{RetryAfter: retry})
					c.Close()
				}()
				continue
			}
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.receiveSubmission(NewConnTimeouts(s.ob.accept(conn), s.idleTimeout, s.frameTimeout))
		}()
	}
}

// coordinate waits for the population to assemble and starts the round:
// immediately when every bidder has submitted, or at the straggler
// deadline with at least quorum submissions. With no deadline configured
// it waits for full attendance forever (the pre-hardening contract).
func (s *AuctioneerServer) coordinate() {
	defer s.wg.Done()
	var deadline <-chan time.Time
	if s.straggler > 0 {
		deadline = time.After(s.straggler)
	}
	for {
		select {
		case <-s.arrived:
			if s.submissionCount() >= s.bidders {
				s.startRound()
				return
			}
		case <-deadline:
			got := s.submissionCount()
			if got >= s.quorum {
				s.startRound()
				return
			}
			s.fail(fmt.Errorf("%w: %d of %d submissions (quorum %d) within %v",
				round.ErrQuorumNotReached, got, s.bidders, s.quorum, s.straggler))
			return
		case <-s.stop:
			s.fail(errors.New("transport: auctioneer shut down before round completed"))
			return
		}
	}
}

func (s *AuctioneerServer) submissionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// startRound transitions to stateRunning, computes the auction over the
// collected submissions, and delivers results.
func (s *AuctioneerServer) startRound() {
	s.mu.Lock()
	s.state = stateRunning
	subs := make(map[int]Submission, len(s.subs))
	for id, sub := range s.subs {
		subs[id] = sub
	}
	s.mu.Unlock()

	outcome, results, err := s.runRound(subs)
	if err != nil {
		s.log.Error("auctioneer: run round", "err", err)
		s.fail(err)
		return
	}
	s.ob.excluded.Add(uint64(len(outcome.Excluded)))
	s.finishTrace("", len(outcome.Excluded) > 0)

	s.mu.Lock()
	s.state = stateDone
	s.results = results
	conns := make(map[int]*Conn, len(s.conns))
	for id, c := range s.conns {
		conns[id] = c
	}
	s.mu.Unlock()

	for id, c := range conns {
		if err := c.Send(KindResult, results[id]); err != nil {
			s.log.Error("auctioneer send result", "bidder", id, "err", err)
		}
		c.Close()
	}
	s.outcome = outcome
	close(s.done)
}

// fail abandons the round: every parked bidder connection is told why and
// closed, and Wait/Outcome unblock.
func (s *AuctioneerServer) fail(err error) {
	s.mu.Lock()
	if s.state == stateDone || s.state == stateFailed {
		s.mu.Unlock()
		return
	}
	s.state = stateFailed
	s.failReason = err.Error()
	conns := make([]*Conn, 0, len(s.conns))
	for _, c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		_ = c.Send(KindError, ErrorMsg{Reason: err.Error()})
		c.Close()
	}
	s.finishTrace(err.Error(), false)
	s.err = err
	close(s.done)
}

// finishTrace ends the round's root span and, when a flight recorder is
// configured, records the round — which auto-dumps the trace to disk on
// failure, degradation, or an SLO miss.
func (s *AuctioneerServer) finishTrace(errStr string, degraded bool) {
	if s.tracer == nil {
		return
	}
	if errStr != "" {
		s.root.SetError(errStr)
	}
	s.root.End()
	if s.flight == nil {
		return
	}
	rt := &obs.RoundTrace{
		Label:    "round",
		Err:      errStr,
		Degraded: degraded,
		Duration: s.root.Duration,
		Spans:    s.tracer.Snapshot(),
	}
	path, err := s.flight.Record(rt)
	switch {
	case err != nil:
		s.log.Error("auctioneer: flight recorder dump", "err", err)
	case path != "":
		s.log.Info("auctioneer: flight recorder dumped round trace", "path", path)
	}
}

// rejectConn answers a connection with a protocol error and closes it.
// span, when non-nil, is marked failed with the same reason.
func (s *AuctioneerServer) rejectConn(c *Conn, span *obs.Span, reason string, retryable bool) {
	s.ob.rejects.Inc()
	span.SetError(reason)
	_ = c.Send(KindError, ErrorMsg{Reason: reason, Retryable: retryable})
	c.Close()
}

// recvSpan opens the per-submission span, parented onto the sender's
// wire trace context when the frame carried one, else onto the round's
// root span. Returns nil (a no-op span) when tracing is off.
func (s *AuctioneerServer) recvSpan(c *Conn, bidder int) *obs.Span {
	if s.tracer == nil {
		return nil
	}
	parent := s.root.Context()
	if tc := c.LastTrace(); tc.Valid() {
		parent = tc.SpanContext()
	}
	return s.tracer.StartSpan("recv_submission", parent, obs.L("bidder", strconv.Itoa(bidder)))
}

func (s *AuctioneerServer) receiveSubmission(c *Conn) {
	start := time.Now()
	var sub Submission
	if err := c.Expect(KindSubmission, &sub); err != nil {
		s.ob.noteErr(err)
		s.ob.rejects.Inc()
		if s.tracer != nil {
			s.root.Event("frame_rejected", obs.L("err", err.Error()))
		}
		s.log.Error("auctioneer recv submission", "err", err)
		c.Close()
		return
	}
	s.ob.subLat.ObserveDuration(time.Since(start))
	span := s.recvSpan(c, sub.BidderID)
	defer span.End()
	if err := sub.Validate(s.params); err != nil {
		s.log.Error("auctioneer: malformed submission", "bidder", sub.BidderID, "err", err)
		s.rejectConn(c, span, err.Error(), false)
		return
	}
	if sub.BidderID < 0 || sub.BidderID >= s.bidders {
		s.rejectConn(c, span, "bidder id out of range", false)
		return
	}

	s.mu.Lock()
	switch s.state {
	case stateCollecting:
		if prev, ok := s.subs[sub.BidderID]; ok {
			if prev.Nonce != sub.Nonce {
				s.mu.Unlock()
				s.rejectConn(c, span, "duplicate bidder id", false)
				return
			}
			// Idempotent replay: the bidder lost its connection and
			// resubmitted. Adopt the fresh connection for result delivery.
			old := s.conns[sub.BidderID]
			s.conns[sub.BidderID] = c
			s.mu.Unlock()
			if old != nil {
				old.Close()
			}
			s.ob.replays.Inc()
			span.Event("replay_deduped")
			_ = c.Send(KindSubmissionAck, struct{}{})
			return
		}
		s.subs[sub.BidderID] = sub
		s.conns[sub.BidderID] = c
		s.mu.Unlock()
		_ = c.Send(KindSubmissionAck, struct{}{})
		select {
		case s.arrived <- struct{}{}:
		default:
		}
	case stateRunning:
		s.mu.Unlock()
		s.rejectConn(c, span, "round in progress, retry shortly", true)
	case stateDone:
		prev, submitted := s.subs[sub.BidderID]
		res, haveResult := s.results[sub.BidderID]
		s.mu.Unlock()
		if submitted && haveResult && prev.Nonce == sub.Nonce {
			// A bidder that crashed after submitting and restarted:
			// replay its stored result.
			s.ob.replays.Inc()
			span.Event("replay_deduped")
			_ = c.Send(KindSubmissionAck, struct{}{})
			_ = c.Send(KindResult, res)
			c.Close()
			return
		}
		s.rejectConn(c, span, "round already closed", false)
	default: // stateFailed
		reason := s.failReason
		s.mu.Unlock()
		s.rejectConn(c, span, "round failed: "+reason, false)
	}
}

// runRound runs round.Auction over the collected submissions, charging
// through the TTP server, and turns its outcome into per-bidder results.
// With a partial population (quorum round) the auction runs over the
// compacted survivor slice; assignment indices are translated back to
// original bidder ids before anything leaves this function.
func (s *AuctioneerServer) runRound(subs map[int]Submission) (*RoundOutcome, map[int]Result, error) {
	ids := make([]int, 0, len(subs))
	for id := range subs {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	locs := make([]*core.LocationSubmission, len(ids))
	bids := make([]*core.BidSubmission, len(ids))
	for ci, id := range ids {
		sub := subs[id]
		locs[ci], bids[ci] = sub.Parts()
	}
	var verdicts []ttp.ChargeResult
	charge := func(reqs []core.ChargeRequest) ([]ttp.ChargeResult, error) {
		wire, err := submitChargesRetry(s.ttpAddr, reqs, 3, 100*time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("transport: settle with ttp: %w", err)
		}
		verdicts = chargeResultsFromWire(wire)
		return verdicts, nil
	}
	opts := []round.Option{round.WithObserver(s.reg)}
	if s.secondPrice {
		opts = append(opts, round.WithSecondPrice())
	}
	phases := obs.NewPhases(s.reg, round.PhaseMetric, s.tracer, s.root.Context(), nil)
	res, err := round.Auction(s.params, locs, bids, charge, s.rng, phases, opts...)
	if err != nil {
		return nil, nil, err
	}

	outcome := &RoundOutcome{Revenue: res.Outcome.Revenue, Voided: res.Voided + res.Violations}
	for id := 0; id < s.bidders; id++ {
		if _, ok := subs[id]; !ok {
			outcome.Excluded = append(outcome.Excluded, id)
			if s.tracer != nil {
				s.root.Event("straggler_excluded", obs.L("bidder", strconv.Itoa(id)))
			}
		}
	}
	// Each award's verdict sits at its position in the batch; an award
	// the TTP's reply left without one is void, as the round counted it.
	results := make(map[int]Result, len(ids))
	for i, as := range res.Outcome.Assignments {
		id := ids[as.Bidder]
		r := Result{BidderID: id, Channel: as.Channel, Voided: true}
		if i < len(verdicts) && verdicts[i].Err == nil && verdicts[i].Valid {
			r.Voided, r.Won, r.Price = false, true, verdicts[i].Price
		}
		results[id] = r
	}
	for _, id := range ids {
		r, ok := results[id]
		if !ok {
			r = Result{BidderID: id}
			results[id] = r
		}
		outcome.Results = append(outcome.Results, r)
	}
	return outcome, results, nil
}
