package epoch

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/obs/ops"
	"lppa/internal/round"
)

// ErrClosed reports a Submit or Seal against a closed service.
var ErrClosed = errors.New("epoch: service closed")

// EpochSeed derives the rng seed of one epoch from the service seed:
// splitmix64 over the epoch counter, so consecutive epochs get
// decorrelated streams while any epoch's full round stays reproducible
// from (seed, epoch) alone. Exported because the equivalence contract
// depends on it — a one-shot round.Run with rand.NewSource(EpochSeed(s,
// e)) over epoch e's admitted set must reproduce the service bit-exactly.
func EpochSeed(seed int64, epoch int) int64 {
	x := uint64(seed) + (uint64(epoch)+1)*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

// Submission is one bidder's entry for the epoch currently collecting.
// Resubmitting before the epoch seals replaces the previous entry —
// latest wins, matching the transport's nonce-idempotent resubmission.
type Submission struct {
	// Bidder is the stable external bidder identity (non-negative).
	Bidder int
	// Point is the bidder's true location; Bids its per-channel bids.
	Point geo.Point
	Bids  []uint64
}

// Config assembles a Service.
type Config struct {
	// Params and Ring are the fixed protocol agreement every epoch runs
	// under; Seed roots the per-epoch rng derivation (EpochSeed).
	Params core.Params
	Ring   *mask.KeyRing
	Seed   int64
	// Policy is every bidder's disguise policy (per-bidder policies can be
	// injected through RoundOptions' WithPolicies if a caller needs them).
	Policy core.DisguisePolicy
	// Admission shapes the ingest gate; the zero value admits everything.
	Admission AdmissionConfig
	// Billing and Quota are the optional batched ledgers: Quota is debited
	// one unit per admitted submission, Billing the charged price per
	// winner at epoch close. Both flush on epoch close.
	Billing *Accountant
	Quota   *Accountant
	// Interval, when positive, seals the collecting epoch on a wall-clock
	// cadence. Zero leaves sealing to explicit Seal calls (tests, CLI).
	Interval time.Duration
	// RoundOptions compose into every epoch's round.Run — WithWorkers,
	// WithTrace, WithObserver, and the rest all apply per epoch exactly as
	// in a one-shot round.
	RoundOptions []round.Option
	// Registry, when non-nil, receives the service counters
	// (lppa_epochs_total, lppa_epoch_bidders_total, admission and
	// accounting series).
	Registry *obs.Registry
	// Ops, when non-nil, is the live telemetry plane: the service
	// installs its status probe, streams seal/shed/drain events and
	// per-epoch observations (wall time, award digest, anonymity set)
	// into it, and feeds the SLO burn-rate monitor through the round's
	// phase observer. nil is free — the observed-twin pin tests hold the
	// service to bit-identical results either way.
	Ops *ops.Plane
}

// batch is one sealed epoch's population, in sorted-bidder order.
type batch struct {
	epoch   int
	bidders []int
	pts     []geo.Point
	bids    [][]uint64
}

// EpochResult reports one finished epoch. Assignment bidder indices in
// Result are compact (0..n−1, the round's view); Bidders maps them back
// to external bidder identities: external = Bidders[compact].
//
// Result carries no transcript: its Auctioneer is nil, so a service that
// keeps its results does not keep every epoch's submissions. To inspect
// an epoch's transcript, replay it with round.Run over its admitted set
// and EpochSeed.
type EpochResult struct {
	Epoch   int
	Bidders []int
	Result  *round.Result
	Err     error
}

// Service is the long-lived epochal auctioneer: submissions stream into
// the collecting epoch through the admission gate while the previous
// sealed epoch allocates on the runner goroutine — Seal hands a
// population across a one-deep queue, so intake for epoch N+1 overlaps
// allocation of epoch N and sealing N+2 blocks (backpressure) until the
// runner frees up. The determinism contract is in the package comment
// and pinned by TestEpochEquivalence.
type Service struct {
	cfg Config
	adm *Admission

	mu     sync.Mutex
	intake map[int]Submission
	epoch  int // number the collecting epoch will seal as
	closed bool

	sealMu    sync.Mutex // serializes Seal's queue sends in epoch order
	closeOnce sync.Once
	queue     chan batch
	results   chan *EpochResult
	done      chan struct{}

	tickStop chan struct{}
	tickDone chan struct{}

	epochs  *obs.Counter
	bidders *obs.Counter
}

// New validates the config and starts the runner (and, with a positive
// Interval, the sealing ticker). Callers must drain Results and Close the
// service when done.
func New(cfg Config) (*Service, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.Ring == nil {
		return nil, fmt.Errorf("epoch: nil key ring")
	}
	adm, err := NewAdmission(cfg.Admission, cfg.Registry)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		adm:     adm,
		intake:  make(map[int]Submission),
		queue:   make(chan batch, 1),
		results: make(chan *EpochResult, 16),
		done:    make(chan struct{}),
	}
	if cfg.Registry != nil {
		s.epochs = cfg.Registry.Counter("lppa_epochs_total")
		s.bidders = cfg.Registry.Counter("lppa_epoch_bidders_total")
	}
	cfg.Ops.SetProbe(s.Status)
	go s.run()
	if cfg.Interval > 0 {
		s.tickStop = make(chan struct{})
		s.tickDone = make(chan struct{})
		go s.tick(cfg.Interval)
	}
	return s, nil
}

// Admission exposes the ingest gate (for wiring transport.WithAdmission
// and for reading the admitted/rejected counters).
func (s *Service) Admission() *Admission { return s.adm }

// Status is the live state probe behind the ops plane's /statusz: the
// epoch currently collecting, its intake depth, whether the service has
// closed, and the admission gate's lifetime tallies. Safe to call from
// any goroutine.
func (s *Service) Status() ops.ServiceStatus {
	s.mu.Lock()
	st := ops.ServiceStatus{
		Epoch:       s.epoch,
		IntakeDepth: len(s.intake),
		Closed:      s.closed,
	}
	s.mu.Unlock()
	st.Admitted, st.Rejected = s.adm.Stats()
	return st
}

// Results delivers finished epochs in seal order. The channel closes
// after Close has drained the runner; slow consumers eventually block
// the runner (the channel is buffered, not unbounded).
func (s *Service) Results() <-chan *EpochResult { return s.results }

// Submit offers one submission to the collecting epoch at wall time.
func (s *Service) Submit(sub Submission) error {
	return s.SubmitAt(sub, s.adm.now())
}

// Withdraw removes the bidder's pending submission from the collecting
// epoch — churn departing mid-epoch. It reports whether an entry was
// pending: a depart after the seal finds nothing (the sealed epoch keeps
// the bidder, exactly like a network peer that vanishes after its frame
// was acked). Spent admission tokens and quota debits are not refunded;
// asking was the cost.
func (s *Service) Withdraw(bidder int) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	_, ok := s.intake[bidder]
	delete(s.intake, bidder)
	return ok, nil
}

// SubmitAt is Submit on an explicit admission clock (seconds) — the
// deterministic path: a seeded arrival process replayed through SubmitAt
// yields an identical admit/reject sequence and identical epochs.
func (s *Service) SubmitAt(sub Submission, now float64) error {
	if sub.Bidder < 0 {
		return fmt.Errorf("epoch: negative bidder id %d", sub.Bidder)
	}
	if len(sub.Bids) != s.cfg.Params.Channels {
		// Reject malformed entries here, where they cost one bidder a
		// retry, instead of poisoning the sealed epoch's round.Run.
		return fmt.Errorf("epoch: bidder %d submitted %d channel bids, want %d",
			sub.Bidder, len(sub.Bids), s.cfg.Params.Channels)
	}
	if ok, retry := s.adm.AdmitBidderAt(sub.Bidder, now); !ok {
		s.cfg.Ops.NoteShed(retry)
		return &ErrRateLimited{RetryAfter: retry}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.intake[sub.Bidder] = sub
	s.mu.Unlock()
	if s.cfg.Quota != nil {
		return s.cfg.Quota.Add(sub.Bidder, 1)
	}
	return nil
}

// Seal closes the collecting epoch and queues it for allocation,
// blocking while both the runner and the one-deep queue are busy — that
// blocking is the pipeline's backpressure. An empty intake is a no-op
// (the epoch number is not consumed). Safe to call concurrently with
// Submit; concurrent Seals are serialized.
func (s *Service) Seal() error {
	s.sealMu.Lock()
	defer s.sealMu.Unlock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	b, ok := s.takeIntake()
	s.mu.Unlock()
	if !ok {
		return nil
	}
	s.cfg.Ops.NoteSeal(b.epoch, len(b.bidders))
	s.queue <- b
	return nil
}

// takeIntake drains the collecting epoch into a sorted batch; callers
// hold s.mu. Sorting by external bidder id fixes the compact index order,
// which keeps the epoch a pure function of the admitted set.
func (s *Service) takeIntake() (batch, bool) {
	if len(s.intake) == 0 {
		return batch{}, false
	}
	ids := make([]int, 0, len(s.intake))
	for id := range s.intake {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	b := batch{epoch: s.epoch, bidders: ids,
		pts:  make([]geo.Point, len(ids)),
		bids: make([][]uint64, len(ids))}
	for i, id := range ids {
		sub := s.intake[id]
		b.pts[i] = sub.Point
		b.bids[i] = sub.Bids
	}
	s.intake = make(map[int]Submission)
	s.epoch++
	return b, true
}

// tick seals on the configured cadence until Close.
func (s *Service) tick(every time.Duration) {
	defer close(s.tickDone)
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if err := s.Seal(); errors.Is(err, ErrClosed) {
				return
			}
		case <-s.tickStop:
			return
		}
	}
}

// run is the allocation goroutine: one sealed epoch at a time, results
// in seal order.
func (s *Service) run() {
	defer close(s.done)
	defer close(s.results)
	for b := range s.queue {
		s.results <- s.runEpoch(b)
	}
}

// runEpoch executes one sealed epoch: derived rng, the caller's round
// options, winner billing, and the epoch-close accounting flush.
func (s *Service) runEpoch(b batch) *EpochResult {
	rng := rand.New(rand.NewSource(EpochSeed(s.cfg.Seed, b.epoch)))
	opts := make([]round.Option, 0, len(s.cfg.RoundOptions)+2)
	opts = append(opts, s.cfg.RoundOptions...)
	opts = append(opts, round.WithEpochNumber(b.epoch))
	var start time.Time
	if s.cfg.Ops != nil {
		epoch := b.epoch
		opts = append(opts, round.WithPhaseObserver(func(phase string, d time.Duration) {
			s.cfg.Ops.ObservePhase(epoch, phase, d)
		}))
		start = time.Now()
	}
	res, err := round.Run(s.cfg.Params, s.cfg.Ring, round.Input{
		Points: b.pts,
		Bids:   b.bids,
		Policy: s.cfg.Policy,
		Rng:    rng,
	}, opts...)
	if res != nil {
		res.Auctioneer = nil // published results hold no transcript (see EpochResult)
	}
	er := &EpochResult{Epoch: b.epoch, Bidders: b.bidders, Result: res, Err: err}
	if s.epochs != nil {
		s.epochs.Inc()
		s.bidders.Add(uint64(len(b.bidders)))
	}
	if err == nil && s.cfg.Billing != nil {
		for i, as := range res.Outcome.Assignments {
			// Charges[i] parallels Assignments[i]; a voided award carries a
			// zero charge and bills nothing. The assignment's bidder index is
			// compact — map it back to the external identity for the ledger.
			if c := res.Outcome.Charges[i]; c > 0 {
				if berr := s.cfg.Billing.Add(b.bidders[as.Bidder], c); berr != nil && er.Err == nil {
					er.Err = berr
				}
			}
		}
	}
	// Epoch close is an accounting barrier: whatever the thresholds left
	// pending persists now, so ledger totals are exact at every epoch edge.
	if ferr := (&Accounting{Billing: s.cfg.Billing, Quota: s.cfg.Quota}).Flush(); ferr != nil && er.Err == nil {
		er.Err = ferr
	}
	if s.cfg.Ops != nil {
		s.observeEpoch(b, er, time.Since(start))
	}
	return er
}

// observeEpoch reports one finished epoch to the ops plane: wall time,
// the award-transcript digest (the same bytes bench/ hashes per op, so
// live service and offline replay compare digest to digest), and the
// epoch's anonymity set — the admitted population, since the auctioneer
// holds only masked submissions and learns no coarser location (no tile)
// that would split it.
func (s *Service) observeEpoch(b batch, er *EpochResult, wall time.Duration) {
	eo := ops.EpochObs{Epoch: b.epoch, Bidders: len(b.bidders), Wall: wall}
	if er.Err != nil {
		eo.Err = er.Err.Error()
	}
	if res := er.Result; res != nil {
		eo.Trace = res.Trace
		eo.Excluded = len(res.Excluded)
		eo.AwardDigest = awardDigest(b.epoch, b.bidders, res)
		admitted := len(b.bidders) - len(res.Excluded)
		eo.AnonMin, eo.AnonMean = admitted, float64(admitted)
	}
	s.cfg.Ops.ObserveEpoch(eo)
}

// awardDigest hashes the epoch's award transcript in the line format
// bench/'s award digests use: the bidder set, every assignment with its
// charge, and the outcome totals.
func awardDigest(epoch int, bidders []int, res *round.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "epoch %d bidders %d [", epoch, len(bidders))
	for _, id := range bidders {
		fmt.Fprintf(h, " %d", id)
	}
	fmt.Fprint(h, " ]\n")
	for i, as := range res.Outcome.Assignments {
		fmt.Fprintf(h, "award bidder %d channel %d charge %d\n",
			bidders[as.Bidder], as.Channel, res.Outcome.Charges[i])
	}
	fmt.Fprintf(h, "revenue %d satisfied %d voided %d excluded %v\n",
		res.Outcome.Revenue, res.Outcome.SatisfiedBidders, res.Voided, res.Excluded)
	return hex.EncodeToString(h.Sum(nil))
}

// Close seals any residual intake, stops the ticker and runner, and
// closes Results after the final epoch is delivered. Idempotent; callers
// must keep draining Results until it closes, or Close blocks behind the
// runner's buffered sends.
func (s *Service) Close() error {
	s.closeOnce.Do(func() {
		// Readiness flips off the moment draining starts: probes stop
		// routing new submissions here while the final epoch still runs.
		s.cfg.Ops.NoteDraining()
		if s.tickStop != nil {
			close(s.tickStop)
			<-s.tickDone
		}
		// Final seal before flipping closed, so in-flight submissions either
		// land in this last epoch or see ErrClosed — never silently vanish.
		s.sealMu.Lock()
		s.mu.Lock()
		s.closed = true
		b, ok := s.takeIntake()
		s.mu.Unlock()
		if ok {
			s.cfg.Ops.NoteSeal(b.epoch, len(b.bidders))
			s.queue <- b
		}
		close(s.queue)
		s.sealMu.Unlock()
	})
	<-s.done
	s.cfg.Ops.NoteClosed()
	return nil
}
