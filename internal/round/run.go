package round

import (
	"errors"
	"fmt"
	"math/rand"

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
	// Rng drives every random choice of the round, in this order: the
	// TTP's key material seed, one encoding seed per bidder in bidder
	// order, then the allocator's channel shuffles and tie breaks. Bidder
	// i's submission depends only on its own seed, so fixing Rng's seed
	// fixes the round at every WithWorkers width.
	Rng *rand.Rand
}

// Option tunes how Run (and Auction) executes. Options compose;
// conflicting charging modes are rejected.
type Option func(*runConfig) error

type runConfig struct {
	workers     int // WithWorkers' n; 1 without the option
	policies    []core.DisguisePolicy
	interactive bool
	secondPrice bool
	quorum      int
	tel         obs.Telemetry
	epoch       int // < 0: the round is untagged
}

// width is the round's worker count over items independent items:
// WithWorkers' n, normalized by mask.Workers, or 1 without the option.
func (c *runConfig) width(items int) int {
	return mask.Workers(c.workers, items)
}

// configure applies opts and rejects conflicting charging modes.
func configure(opts []Option) (runConfig, error) {
	cfg := runConfig{workers: 1, epoch: -1}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return runConfig{}, err
		}
	}
	if cfg.interactive && cfg.secondPrice {
		return runConfig{}, fmt.Errorf("round: interactive charging and second-price charging are mutually exclusive")
	}
	return cfg, nil
}

// WithWorkers sets the round's width: the goroutines that encode the
// bidders' submissions and build the auctioneer's conflict graph and rank
// memos (core.Auctioneer.SetWorkers). n == 0 means one per available CPU;
// without the option the width is 1 and the round runs on the calling
// goroutine. The width never changes a result: each bidder encodes from
// its own seed (Input.Rng) and the builds are worker-invariant, so Run
// returns the same round at every n, and with no option.
func WithWorkers(n int) Option {
	return func(c *runConfig) error {
		if n < 0 {
			return fmt.Errorf("round: negative worker count %d", n)
		}
		c.workers = n
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

// WithQuorum lets the round degrade gracefully instead of aborting: a
// bidder whose submission cannot be produced (malformed input) is
// excluded and the auction runs over the remaining population, as long as
// at least q usable submissions remain — otherwise Run returns
// ErrQuorumNotReached. Excluded bidders are reported in Result.Excluded
// and count as unsatisfied. On fault-free inputs the option is a no-op:
// results are bit-identical to the same call without it.
func WithQuorum(q int) Option {
	return func(c *runConfig) error {
		if q < 1 {
			return fmt.Errorf("round: quorum %d, need at least 1", q)
		}
		c.quorum = q
		return nil
	}
}

// WithTelemetry reports the round through tel (obs.Telemetry.Start):
// per-phase wall time under lppa_round_phase_seconds, round totals
// (winners, revenue, voided, violations, submission bytes, masked
// digests) and the auctioneer's comparison and interning counters
// (core.Auctioneer.SetObserver) into tel.Metrics; a root "round" span
// with a child span per phase (encode, conflict_graph, rank_memo,
// allocate, charge) and a straggler_excluded event per bidder a degraded
// quorum round dropped into tel.Tracer, which a sampled tracer opens for
// one round in K; each traced round into tel.Flight, which dumps its ring when the
// round fails, degrades or exceeds the recorder's latency SLO; and each
// phase's wall time to tel.OnPhase on the round goroutine. A Flight
// without a Tracer is rejected. Results are bit-identical whatever tel
// holds, and the zero Telemetry reads no clock.
func WithTelemetry(tel obs.Telemetry) Option {
	return func(c *runConfig) error {
		if err := tel.Validate(); err != nil {
			return fmt.Errorf("round: %w", err)
		}
		c.tel = tel
		return nil
	}
}

// WithEpochNumber tags the round with the epochal service's epoch
// number n ≥ 0: the root trace span gets an epoch attribute and flight
// dumps triggered by the round carry the epoch in their filename. Pure
// metadata — results are bit-identical with or without it.
func WithEpochNumber(n int) Option {
	return func(c *runConfig) error {
		if n < 0 {
			return fmt.Errorf("round: negative epoch number %d", n)
		}
		c.epoch = n
		return nil
	}
}

// roundObs caches the round-level metric handles for one Run; they are
// nil, and so discard updates, when no registry is attached.
type roundObs struct {
	rounds, winners, revenue, voided, violations *obs.Counter
	bytes, digests                               *obs.Counter
	workers                                      *obs.Gauge
}

func newRoundObs(reg *obs.Registry) roundObs {
	return roundObs{
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
	o.rounds.Inc()
	o.winners.Add(uint64(res.Outcome.SatisfiedBidders))
	o.revenue.Add(res.Outcome.Revenue)
	o.voided.Add(uint64(res.Voided))
	o.violations.Add(uint64(res.Violations))
	o.bytes.Add(uint64(bytesTotal))
	o.digests.Add(uint64(digests))
	o.workers.Set(int64(workers))
}

// buildSamplers returns one disguise sampler per bidder for n bidders:
// policies[i], or policy for every bidder when policies is nil. Bidders
// with the same policy share a sampler (Sample only reads the precomputed
// CDF); policies with P0 ≥ 1 never disguise and get nil.
func buildSamplers(n int, policy core.DisguisePolicy, policies []core.DisguisePolicy, bmax uint64) ([]*core.DisguiseSampler, error) {
	if policies != nil && len(policies) != n {
		return nil, fmt.Errorf("round: %d points, %d policies", n, len(policies))
	}
	out := make([]*core.DisguiseSampler, n)
	cache := map[core.DisguisePolicy]*core.DisguiseSampler{}
	for i := range out {
		p := policy
		if policies != nil {
			p = policies[i]
		}
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

// Run executes one complete private LPPA round:
//
//  1. The TTP derives its key material from the caller's ring.
//  2. Every bidder builds a masked location submission and an advanced
//     masked bid submission under its disguise policy.
//  3. Auction builds the conflict graph and allocates channels over masked
//     data (Algorithm 3), and the TTP adjudicates the winners' charges;
//     voided awards are dropped.
//
// Options select the width and charging shape: WithWorkers for the
// goroutines the round fans out over, WithPolicies for per-bidder
// disguise, WithInteractiveCharging or WithSecondPrice (mutually
// exclusive) for the charging design, WithTelemetry for metrics, spans and
// flight recording. No option changes how in.Rng is consumed, and the
// width never changes a result.
func Run(params core.Params, ring *mask.KeyRing, in Input, opts ...Option) (*Result, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	ph := cfg.tel.Start(PhaseMetric, "round", len(in.Points), params.Channels, cfg.epoch)
	res, err := run(params, ring, in, &cfg, ph)
	var excluded []int
	if res != nil {
		res.Trace = ph.Root().Context().Trace
		excluded = res.Excluded
	}
	_, _ = ph.Finish(err, excluded)
	return res, err
}

// run is the Run body: the bidder half (encode), quorum compaction, and
// Auction, with phase boundaries reported through ph.
func run(params core.Params, ring *mask.KeyRing, in Input, cfg *runConfig, ph *obs.Phases) (*Result, error) {
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
	if cfg.quorum > n {
		return nil, fmt.Errorf("round: quorum %d exceeds population %d", cfg.quorum, n)
	}
	samplers, err := buildSamplers(n, in.Policy, cfg.policies, params.BMax)
	if err != nil {
		return nil, err
	}

	rng := in.Rng
	trusted, err := ttp.FromRing(params, ring, rand.New(rand.NewSource(rng.Int63())))
	if err != nil {
		return nil, err
	}

	ph.Phase("encode")
	workers := cfg.width(n)
	locs, subs, bytesPer, errs := encode(params, ring, in.Points, in.Bids, samplers, rng, workers)
	// Without WithQuorum the first failed bidder fails the round; with it,
	// failed bidders are excluded down to the quorum floor and the auction
	// runs over the compacted survivors.
	var keep, excluded []int
	bytesTotal := 0
	for i, err := range errs {
		if err == nil {
			keep = append(keep, i)
			bytesTotal += bytesPer[i]
			continue
		}
		if cfg.quorum == 0 {
			return nil, err
		}
		excluded = append(excluded, i)
	}
	if len(keep) < cfg.quorum {
		return nil, fmt.Errorf("%w: %d of %d usable submissions, need %d",
			ErrQuorumNotReached, len(keep), n, cfg.quorum)
	}
	if len(excluded) > 0 {
		clocs := make([]*core.LocationSubmission, len(keep))
		csubs := make([]*core.BidSubmission, len(keep))
		for ci, i := range keep {
			clocs[ci], csubs[ci] = locs[i], subs[i]
		}
		locs, subs = clocs, csubs
	}

	charge := func(reqs []core.ChargeRequest) ([]ttp.ChargeResult, error) {
		return trusted.ProcessBatch(reqs), nil
	}
	var validate func([]byte) bool
	if cfg.interactive {
		validate = trusted.ValidateAward
	}
	res, err := auctionRound(params, locs, subs, charge, validate, rng, ph, cfg)
	if err != nil {
		return nil, err
	}
	res.SubmissionBytes = bytesTotal
	// Outcome.Bidders counts the full population, so excluded bidders
	// depress satisfaction as they should; a compacted quorum round
	// allocated over the survivors, so assignment indices are translated
	// back to original bidder ids and callers see one stable numbering.
	res.Outcome.Bidders = n
	if len(excluded) > 0 {
		for i := range res.Outcome.Assignments {
			res.Outcome.Assignments[i].Bidder = keep[res.Outcome.Assignments[i].Bidder]
		}
		res.Excluded = excluded
	}
	digests := 0
	for _, c := range res.Auctioneer.DigestCounts() {
		digests += c
	}
	ro := newRoundObs(cfg.tel.Metrics)
	ro.note(res, workers, bytesTotal, digests)
	return res, nil
}
