package round

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/ttp"
)

// ErrQuorumNotReached reports that a quorum round had fewer usable
// submissions than WithQuorum demanded. The networked auctioneer
// (internal/transport) wraps the same sentinel when stragglers leave it
// short, so callers on either path detect the condition with errors.Is.
var ErrQuorumNotReached = errors.New("round: quorum not reached")

// Input bundles one round's bidder-side inputs: where the bidders are,
// what they bid, how they disguise, and the randomness driving the round.
type Input struct {
	// Points and Bids are indexed by bidder.
	Points []geo.Point
	Bids   [][]uint64
	// Policy is the disguise policy applied to every bidder. WithPolicies
	// overrides it per bidder.
	Policy core.DisguisePolicy
	// Rng drives every random choice of the round: the TTP's key material
	// seed, bid encoding, and the allocator's channel shuffles and tie
	// breaks. Fixing the seed fixes the round (see WithWorkers for how
	// parallel encoding keeps that true).
	Rng *rand.Rand
}

// Option tunes how Run executes. Options compose; conflicting charging
// modes are rejected by Run.
type Option func(*runConfig) error

type runConfig struct {
	workers     int
	seeded      bool
	policies    []core.DisguisePolicy
	interactive bool
	secondPrice bool
	quorum      int
	straggler   time.Duration
	reg         *obs.Registry
	tracer      *obs.Tracer
	flight      *obs.FlightRecorder
	state       *EpochState
	sampler     *obs.TraceSampler
	epoch       int
	hasEpoch    bool
	onPhase     func(phase string, d time.Duration)
}

// WithWorkers bounds the goroutines used for submission encoding; the
// auctioneer's conflict graph and rank memos build on the round goroutine
// whatever n is. n == 0 means one worker per available CPU; n == 1 pins
// the seeded pipeline to the calling goroutine.
//
// Passing this option — with any n — switches Run onto the seeded
// encoding pipeline: the round rng is consumed serially up front (one TTP
// draw, then one encoding seed per bidder in index order), so results are
// identical for every n but differ from the optionless serial path at the
// same seed, which threads one rng through all bidders sequentially. Pick
// one shape per experiment.
func WithWorkers(n int) Option {
	return func(c *runConfig) error {
		if n < 0 {
			return fmt.Errorf("round: negative worker count %d", n)
		}
		c.workers = n
		c.seeded = true
		return nil
	}
}

// WithPolicies gives each bidder its own disguise policy (the paper lets
// every user pick its own privacy/performance tradeoff), overriding
// Input.Policy. The slice must have one entry per bidder.
func WithPolicies(policies []core.DisguisePolicy) Option {
	return func(c *runConfig) error {
		c.policies = policies
		return nil
	}
}

// WithInteractiveCharging switches the TTP to the interactive design:
// every prospective award is validity-checked before it stands, so a
// (possibly disguised) zero that tops a column wastes only that channel in
// the winner's neighborhood instead of the bidder's whole participation.
// Trades much more TTP online time for auction performance.
func WithInteractiveCharging() Option {
	return func(c *runConfig) error {
		c.interactive = true
		return nil
	}
}

// WithSecondPrice switches charging to second price: the auctioneer
// additionally forwards each award-time runner-up's sealed bid and the TTP
// charges the winner that value.
func WithSecondPrice() Option {
	return func(c *runConfig) error {
		c.secondPrice = true
		return nil
	}
}

// WithObserver records the round into reg: per-phase wall time under
// lppa_round_phase_seconds, round totals (winners, revenue, voided,
// violations, submission bytes, masked digests), and the auctioneer's
// comparison/interning counters (core.Auctioneer.SetObserver). A nil
// registry is the same as omitting the option; results are bit-identical
// either way.
func WithObserver(reg *obs.Registry) Option {
	return func(c *runConfig) error {
		c.reg = reg
		return nil
	}
}

// WithQuorum lets the round degrade gracefully instead of aborting: a
// bidder whose submission cannot be produced (malformed input, or a
// straggler past WithStragglerTimeout) is excluded and the auction runs
// over the remaining population, as long as at least q usable submissions
// remain — otherwise Run returns ErrQuorumNotReached. Excluded bidders
// are reported in Result.Excluded and count as unsatisfied. On fault-free
// inputs the option is a no-op: results are bit-identical to the same
// call without it.
func WithQuorum(q int) Option {
	return func(c *runConfig) error {
		if q < 1 {
			return fmt.Errorf("round: quorum %d, need at least 1", q)
		}
		c.quorum = q
		return nil
	}
}

// WithStragglerTimeout bounds how long the round waits for any bidder's
// submission to materialize; bidders still unfinished when it fires are
// excluded under the WithQuorum rules (the option implies a quorum of the
// full population when WithQuorum is not also given, so a fired timeout
// with no usable exclusions fails the round rather than silently shrinking
// it). Requires the seeded pipeline (WithWorkers): per-bidder seeding is
// what makes abandoning a straggler safe. Exclusion by deadline depends on
// scheduling and is therefore not deterministic — it exists so a wedged
// submission source cannot hang the round, which the chaos harness
// exercises over the networked transport.
func WithStragglerTimeout(d time.Duration) Option {
	return func(c *runConfig) error {
		if d <= 0 {
			return fmt.Errorf("round: straggler timeout %v, need positive", d)
		}
		c.straggler = d
		return nil
	}
}

// WithTrace records the round into tracer as one root "round" span with a
// child span per phase (encode, conflict_graph, allocate, charge) —
// mirroring the WithObserver phase timings — plus a straggler_excluded
// event per bidder a degraded quorum round dropped. A nil tracer is the
// same as omitting the option; results are bit-identical either way.
func WithTrace(tracer *obs.Tracer) Option {
	return func(c *runConfig) error {
		c.tracer = tracer
		return nil
	}
}

// WithFlightRecorder auto-dumps the round's trace through fr when the
// round fails, degrades below full attendance, or exceeds fr's latency
// SLO. Requires WithTrace or WithTraceSampler: the recorder dumps the
// spans the tracer collected. A nil recorder is the same as omitting the
// option.
func WithFlightRecorder(fr *obs.FlightRecorder) Option {
	return func(c *runConfig) error {
		c.flight = fr
		return nil
	}
}

// WithTraceSampler traces this round only when the sampler's
// deterministic 1-in-K schedule picks it (the sampler consumes one round
// index per Run). A sampled round behaves exactly like WithTrace with
// the sampler's tracer; an unsampled round runs the untraced path —
// bit-identical awards either way, and the unsampled path costs one
// atomic add over no option at all. Mutually exclusive with WithTrace; a
// nil sampler is the same as omitting the option.
func WithTraceSampler(s *obs.TraceSampler) Option {
	return func(c *runConfig) error {
		c.sampler = s
		return nil
	}
}

// WithEpochNumber tags the round with the epochal service's epoch
// number: the root trace span gets an epoch attribute and flight dumps
// triggered by the round carry the epoch in their filename. Pure
// metadata — results are bit-identical with or without it.
func WithEpochNumber(n int) Option {
	return func(c *runConfig) error {
		c.epoch = n
		c.hasEpoch = true
		return nil
	}
}

// WithPhaseObserver streams each phase's wall time to fn as the round
// executes — the always-on cheap signal behind the ops plane's SLO
// burn-rate monitor, available whether or not the round is traced. fn is
// called on the round goroutine; keep it fast. A nil fn is the same as
// omitting the option; results are bit-identical either way.
func WithPhaseObserver(fn func(phase string, d time.Duration)) Option {
	return func(c *runConfig) error {
		c.onPhase = fn
		return nil
	}
}

// phaser pairs the metrics PhaseTimer with tracing spans so both views of
// the round agree on phase boundaries. With a nil tracer every span field
// stays nil and the span calls are no-ops, so an untraced round runs the
// pre-tracing code path bit-identically.
type phaser struct {
	timer    *obs.PhaseTimer
	tracer   *obs.Tracer
	root     *obs.Span
	cur      *obs.Span
	onPhase  func(phase string, d time.Duration)
	curName  string
	curStart time.Time
	epoch    int
	hasEpoch bool
}

// phase closes the current phase (timer and span) and opens the named one
// as a child of the round root.
func (p *phaser) phase(name string) {
	p.timer.Phase(name)
	if p.onPhase != nil {
		now := time.Now()
		if p.curName != "" {
			p.onPhase(p.curName, now.Sub(p.curStart))
		}
		p.curName, p.curStart = name, now
	}
	p.cur.End()
	p.cur = nil
	if p.tracer != nil {
		p.cur = p.tracer.StartSpan(name, p.root.Context())
	}
}

// stop closes the current phase without opening another (round over or
// aborting).
func (p *phaser) stop() {
	p.timer.Stop()
	if p.onPhase != nil && p.curName != "" {
		p.onPhase(p.curName, time.Since(p.curStart))
		p.curName = ""
	}
	p.cur.End()
	p.cur = nil
}

// finish closes the round root span — recording the failure and any
// quorum exclusions — and hands the trace to the flight recorder.
func (p *phaser) finish(res *Result, err error, flight *obs.FlightRecorder) {
	p.cur.End()
	p.cur = nil
	if p.root == nil {
		return
	}
	if err != nil {
		p.root.SetError(err.Error())
	}
	degraded := res != nil && len(res.Excluded) > 0
	if degraded {
		for _, id := range res.Excluded {
			p.root.Event("straggler_excluded", obs.L("bidder", strconv.Itoa(id)))
		}
	}
	p.root.End()
	if flight == nil {
		return
	}
	rt := &obs.RoundTrace{
		Label:    "round",
		Degraded: degraded,
		Epoch:    p.epoch,
		HasEpoch: p.hasEpoch,
		Duration: p.root.Duration,
		Spans:    p.tracer.TakeTrace(p.root.Ctx.Trace),
	}
	if err != nil {
		rt.Err = err.Error()
	}
	_, _ = flight.Record(rt)
}

// roundObs caches the round-level metric handles for one Run.
type roundObs struct {
	rounds, winners, revenue, voided, violations *obs.Counter
	bytes, digests                               *obs.Counter
	workers                                      *obs.Gauge
}

func newRoundObs(reg *obs.Registry) *roundObs {
	if reg == nil {
		return nil
	}
	return &roundObs{
		rounds:     reg.Counter("lppa_rounds_total"),
		winners:    reg.Counter("lppa_round_winners_total"),
		revenue:    reg.Counter("lppa_round_revenue_total"),
		voided:     reg.Counter("lppa_round_voided_total"),
		violations: reg.Counter("lppa_round_violations_total"),
		bytes:      reg.Counter("lppa_round_submission_bytes_total"),
		digests:    reg.Counter("lppa_mask_digests_total"),
		workers:    reg.Gauge("lppa_round_workers"),
	}
}

// note folds one finished round into the registry.
func (o *roundObs) note(res *Result, workers, bytesTotal, digests int) {
	if o == nil {
		return
	}
	o.rounds.Inc()
	o.winners.Add(uint64(res.Outcome.SatisfiedBidders))
	o.revenue.Add(res.Outcome.Revenue)
	o.voided.Add(uint64(res.Voided))
	o.violations.Add(uint64(res.Violations))
	o.bytes.Add(uint64(bytesTotal))
	o.digests.Add(uint64(digests))
	o.workers.Set(int64(workers))
}

// countDigests tallies how many masked digests one population submitted
// (location families and covers plus per-channel bid families and covers).
// Observed rounds only; O(n·k) map-len reads.
func countDigests(locs []*core.LocationSubmission, subs []*core.BidSubmission) int {
	total := 0
	for _, l := range locs {
		total += l.XFamily.Len() + l.YFamily.Len() + l.XRange.Len() + l.YRange.Len()
	}
	for _, s := range subs {
		for r := range s.Channels {
			cb := &s.Channels[r]
			total += cb.Family.Len() + cb.Range.Len()
		}
	}
	return total
}

// buildSamplers returns one disguise sampler per bidder. Bidders with the
// same policy share a sampler (Sample only reads the precomputed CDF);
// policies with P0 ≥ 1 never disguise and get nil.
func buildSamplers(policies []core.DisguisePolicy, bmax uint64) ([]*core.DisguiseSampler, error) {
	out := make([]*core.DisguiseSampler, len(policies))
	cache := map[core.DisguisePolicy]*core.DisguiseSampler{}
	for i, p := range policies {
		if p.P0 >= 1 {
			continue
		}
		s, ok := cache[p]
		if !ok {
			var err error
			if s, err = core.NewDisguiseSampler(p, bmax); err != nil {
				return nil, fmt.Errorf("round: bidder %d disguise: %w", i, err)
			}
			cache[p] = s
		}
		out[i] = s
	}
	return out, nil
}

// encodeSerial produces every bidder's submissions on the calling
// goroutine, threading the round rng through bidders in index order — the
// randomness shape of a Run without WithWorkers, which the paper-figure
// drivers (internal/sim) still use.
func encodeSerial(params core.Params, ring *mask.KeyRing, points []geo.Point, bids [][]uint64,
	samplers []*core.DisguiseSampler, rng *rand.Rand) ([]*core.LocationSubmission, []*core.BidSubmission, int, error) {
	n := len(points)
	locs := make([]*core.LocationSubmission, n)
	subs := make([]*core.BidSubmission, n)
	bytesTotal := 0
	// Location masking draws no randomness and runs under the ring's shared
	// key, so equal points yield byte-identical immutable submissions —
	// co-located bidders share one. The bid encoder below still consumes
	// the rng stream bidder by bidder, so the transcript is unchanged.
	locMemo := make(map[geo.Point]*core.LocationSubmission, n)
	enc := &encoder{params: params, ring: ring}
	for i := 0; i < n; i++ {
		loc := locMemo[points[i]]
		if loc == nil {
			var err error
			if loc, err = enc.location(i, points[i]); err != nil {
				return nil, nil, 0, err
			}
			locMemo[points[i]] = loc
		}
		locs[i] = loc
		sub, err := enc.bids(i, samplers[i], bids[i], rng)
		if err != nil {
			return nil, nil, 0, err
		}
		subs[i] = sub
		bytesTotal += core.SubmissionBytes(sub) + core.LocationBytes(loc)
	}
	return locs, subs, bytesTotal, nil
}

// tallyCharges folds the TTP's batch verdicts into the outcome: valid
// awards are charged and satisfied, invalid ones voided, errors counted as
// protocol violations.
func tallyCharges(res *Result, results []ttp.ChargeResult) {
	out := res.Outcome
	for i, r := range results {
		switch {
		case r.Err != nil:
			res.Violations++
		case !r.Valid:
			res.Voided++
		default:
			out.Charges[i] = r.Price
			out.Revenue += r.Price
			out.SatisfiedBidders++
		}
	}
}

// Run executes one complete private LPPA round:
//
//  1. The TTP derives its key material from the caller's ring.
//  2. Every bidder builds a masked location submission and an advanced
//     masked bid submission under its disguise policy.
//  3. The auctioneer builds the conflict graph and allocates channels over
//     masked data (Algorithm 3).
//  4. The TTP adjudicates the winners' charges; voided awards are dropped.
//
// Options select the execution and charging shape: WithWorkers for the
// deterministic parallel pipeline, WithPolicies for per-bidder disguise,
// WithInteractiveCharging or WithSecondPrice (mutually exclusive) for the
// charging design, WithObserver for metrics. With no options Run threads
// one rng through all bidders serially (see WithWorkers).
func Run(params core.Params, ring *mask.KeyRing, in Input, opts ...Option) (*Result, error) {
	var cfg runConfig
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.interactive && cfg.secondPrice {
		return nil, fmt.Errorf("round: interactive charging and second-price charging are mutually exclusive")
	}
	if cfg.straggler > 0 && !cfg.seeded {
		// The serial pipeline threads one rng through all bidders, so a
		// deadline could leave a background encoder racing the allocator
		// for it; per-bidder seeding makes abandonment safe.
		return nil, fmt.Errorf("round: WithStragglerTimeout requires the seeded pipeline (add WithWorkers)")
	}
	if cfg.sampler != nil && cfg.tracer != nil {
		return nil, fmt.Errorf("round: WithTrace and WithTraceSampler are mutually exclusive")
	}
	if cfg.flight != nil && cfg.tracer == nil && cfg.sampler == nil {
		return nil, fmt.Errorf("round: WithFlightRecorder requires WithTrace or WithTraceSampler")
	}
	var sampleIdx uint64
	if cfg.sampler != nil {
		// The sampler consumes one round index whether or not it samples;
		// an unsampled round proceeds on the untraced (nil-tracer) path.
		if tr, idx, ok := cfg.sampler.Next(); ok {
			cfg.tracer, sampleIdx = tr, idx
		}
	}
	ph := &phaser{
		timer: cfg.reg.PhaseTimer("lppa_round_phase_seconds", nil), tracer: cfg.tracer,
		onPhase: cfg.onPhase, epoch: cfg.epoch, hasEpoch: cfg.hasEpoch,
	}
	if cfg.tracer != nil {
		ph.root = cfg.tracer.StartTrace("round",
			obs.L("bidders", strconv.Itoa(len(in.Points))),
			obs.L("channels", strconv.Itoa(params.Channels)))
		if cfg.hasEpoch {
			ph.root.Annotate("epoch", strconv.Itoa(cfg.epoch))
		}
		if cfg.sampler != nil {
			ph.root.Annotate("sample_index", strconv.FormatUint(sampleIdx, 10))
		}
	}
	res, err := run(params, ring, in, &cfg, ph)
	if res != nil && ph.root != nil {
		res.Trace = ph.root.Ctx.Trace
	}
	ph.finish(res, err, cfg.flight)
	return res, err
}

// run is the Run body: everything between option validation and trace
// finalization, with phase boundaries reported through ph.
func run(params core.Params, ring *mask.KeyRing, in Input, cfg *runConfig, ph *phaser) (*Result, error) {
	n := len(in.Points)
	if n == 0 {
		return nil, fmt.Errorf("round: no bidders")
	}
	if len(in.Bids) != n {
		return nil, fmt.Errorf("round: %d points, %d bid vectors", n, len(in.Bids))
	}
	if in.Rng == nil {
		return nil, fmt.Errorf("round: nil rng")
	}
	policies := cfg.policies
	if policies == nil {
		policies = make([]core.DisguisePolicy, n)
		for i := range policies {
			policies[i] = in.Policy
		}
	} else if len(policies) != n {
		return nil, fmt.Errorf("round: %d points, %d policies", n, len(policies))
	}

	ro := newRoundObs(cfg.reg)
	rng := in.Rng

	trusted, err := ttp.FromRing(params, ring, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}
	samplers, err := buildSamplers(policies, params.BMax)
	if err != nil {
		return nil, err
	}

	ph.phase("encode")
	var (
		locs       []*core.LocationSubmission
		subs       []*core.BidSubmission
		bytesTotal int
		excluded   []int
		keep       []int
	)
	workers := 1
	tolerant := cfg.quorum > 0 || cfg.straggler > 0
	switch {
	case tolerant:
		// Quorum mode: per-bidder failures and stragglers are excluded
		// instead of aborting the round, down to the quorum floor.
		effQuorum := cfg.quorum
		if effQuorum == 0 {
			effQuorum = n
		}
		if effQuorum > n {
			ph.stop()
			return nil, fmt.Errorf("round: quorum %d exceeds population %d", effQuorum, n)
		}
		var (
			bytesPer []int
			errs     []error
		)
		if cfg.seeded {
			workers = mask.Workers(cfg.workers, n)
		}
		locs, subs, bytesPer, errs = encodeTolerant(params, ring, in.Points, in.Bids,
			samplers, rng, workers, cfg.seeded, cfg.straggler)
		for i := 0; i < n; i++ {
			if errs[i] == nil && locs[i] != nil && subs[i] != nil {
				keep = append(keep, i)
				bytesTotal += bytesPer[i]
			} else {
				excluded = append(excluded, i)
			}
		}
		if len(keep) < effQuorum {
			ph.stop()
			return nil, fmt.Errorf("%w: %d of %d usable submissions, need %d",
				ErrQuorumNotReached, len(keep), n, effQuorum)
		}
		if len(excluded) > 0 {
			clocs := make([]*core.LocationSubmission, len(keep))
			csubs := make([]*core.BidSubmission, len(keep))
			for ci, i := range keep {
				clocs[ci], csubs[ci] = locs[i], subs[i]
			}
			locs, subs = clocs, csubs
		}
	case cfg.seeded:
		workers = mask.Workers(cfg.workers, n)
		locs, subs, bytesTotal, err = encodeSubmissions(params, ring, in.Points, in.Bids, samplers, rng, workers)
	default:
		locs, subs, bytesTotal, err = encodeSerial(params, ring, in.Points, in.Bids, samplers, rng)
	}
	if err != nil {
		ph.stop()
		return nil, err
	}

	auc, err := cfg.state.auctioneer(params, locs, subs)
	if err != nil {
		ph.stop()
		return nil, err
	}
	auc.SetObserver(cfg.reg)

	// The graph build is rng-free, so forcing it here (instead of letting
	// the allocator build it lazily) changes nothing except giving the
	// phase its own wall-time series.
	ph.phase("conflict_graph")
	auc.ConflictGraph()

	ph.phase("allocate")
	res := &Result{Auctioneer: auc, SubmissionBytes: bytesTotal}
	switch {
	case cfg.secondPrice:
		awards, err := auc.AllocateAwards(rng)
		if err != nil {
			ph.stop()
			return nil, err
		}
		out := &auction.Outcome{
			Assignments: make([]auction.Assignment, len(awards)),
			Charges:     make([]uint64, len(awards)),
			Bidders:     n,
		}
		for i, aw := range awards {
			out.Assignments[i] = aw.Assignment
		}
		res.Outcome = out
		ph.phase("charge")
		tallyCharges(res, trusted.ProcessBatch(auc.ChargeRequestsSecondPrice(awards)))
	case cfg.interactive:
		// The validity oracle interleaves TTP round trips with the
		// allocation sweep, so their cost lands in the allocate phase —
		// that is the interactive design's point.
		validity := func(i, r int) bool { return trusted.ValidateAward(auc.SealedBid(i, r)) }
		assignments, voided, err := auc.AllocateWithValidity(validity, rng)
		if err != nil {
			ph.stop()
			return nil, err
		}
		res.Outcome = &auction.Outcome{
			Assignments: assignments,
			Charges:     make([]uint64, len(assignments)),
			Bidders:     n,
		}
		res.Voided = len(voided)
		ph.phase("charge")
		tallyCharges(res, trusted.ProcessBatch(auc.ChargeRequests(assignments)))
	default:
		// Batch charging (the paper's section V.C.2): the allocation
		// completes blindly, then the TTP adjudicates all winners at once.
		// A zero that won is voided after the fact — the award already
		// consumed the bidder's row and the channel slot, which is exactly
		// the performance cost Fig. 5(e)(f) charts.
		assignments, err := auc.Allocate(rng)
		if err != nil {
			ph.stop()
			return nil, err
		}
		res.Outcome = &auction.Outcome{
			Assignments: assignments,
			Charges:     make([]uint64, len(assignments)),
			Bidders:     n,
		}
		ph.phase("charge")
		tallyCharges(res, trusted.ProcessBatch(auc.ChargeRequests(assignments)))
	}
	// A compacted quorum round allocated over the surviving population;
	// translate assignment indices back to original bidder ids so callers
	// see one stable numbering. Outcome.Bidders already counts the full
	// population, so excluded bidders depress satisfaction as they should.
	if len(excluded) > 0 {
		for i := range res.Outcome.Assignments {
			res.Outcome.Assignments[i].Bidder = keep[res.Outcome.Assignments[i].Bidder]
		}
		res.Excluded = excluded
	}
	ph.stop()
	if ro != nil {
		ro.note(res, workers, bytesTotal, countDigests(locs, subs))
	}
	return res, nil
}
