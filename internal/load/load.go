package load

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"time"

	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/epoch"
	"lppa/internal/faults"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/round"
	"lppa/internal/sim"
)

// Variants the harness drives. The one-shot variants run round.Run
// closed-loop (every present bidder, one round per iteration); "service"
// replays a seeded arrival/churn schedule through the epochal pipeline on
// its logical clock.
const (
	VariantInterned = "interned" // one-shot rounds over the whole population
	VariantService  = "service"  // epochal service, open-loop arrivals
)

// Variants lists every variant name, in sweep order.
func Variants() []string {
	return []string{VariantInterned, VariantService}
}

// Seed-stream salts: each consumer of Config.Seed gets its own splitmix
// lane so adding draws to one never perturbs another.
const (
	saltPopulation = 0x706f70 // "pop": bidder placement
	saltBids       = 0x626964 // "bid": per-round / per-event valuations
	saltChaos      = 0x63686f // "cho": drop/dup decisions
	saltSchedule   = 0x736368 // "sch": arrival/churn event times
)

// Config describes one workload run. The zero value is not runnable;
// Bidders, Rounds, and Variant are required.
type Config struct {
	// Bidders is the population size N; Channels the spectrum width
	// (default 8). Density names the placement mix (default "mixed").
	Bidders  int
	Channels int
	Density  string
	// Variant selects the execution path; Workers is the pipeline width
	// (0 = one per CPU).
	Variant string
	Workers int
	// Rounds is the closed-loop round count, or — for "service" — the
	// epoch budget: the arrival horizon spans Rounds seal intervals.
	Rounds int
	Seed   int64
	// Arrival shapes the service variant's open-loop schedule. The zero
	// value derives a default: Poisson arrivals across the horizon with
	// 20% resubmission and 5% departure churn. EpochSeconds is the seal
	// cadence on the logical clock (default 1s); RateLimit the admission
	// token rate in submissions per logical second (0 admits everything).
	Arrival      sim.ArrivalConfig
	EpochSeconds float64
	RateLimit    float64
	// Chaos drops or duplicates submissions at the configured per-frame
	// rates (DropFrame, DupFrame — the same knobs the fault-injecting
	// transport uses). Decisions are drawn from a dedicated seeded stream
	// in fixed order, so enabling one fault never re-times another.
	Chaos faults.Config
	// Registry, when non-nil, receives the round and admission counters.
	Registry *obs.Registry
}

// Name is the run's stable identity in reports and SLO blocks:
// variant/density/nBidders.
func (c Config) Name() string {
	return fmt.Sprintf("%s/%s/n%d", c.Variant, c.density(), c.Bidders)
}

func (c Config) density() string {
	if c.Density == "" {
		return "mixed"
	}
	return c.Density
}

// normalize fills defaults and validates; it returns the resolved config.
func (c Config) normalize() (Config, error) {
	if c.Bidders <= 0 {
		return c, fmt.Errorf("load: %d bidders, need at least 1", c.Bidders)
	}
	if c.Rounds <= 0 {
		return c, fmt.Errorf("load: %d rounds, need at least 1", c.Rounds)
	}
	if c.Channels == 0 {
		c.Channels = 8
	}
	if c.Channels < 1 {
		return c, fmt.Errorf("load: %d channels, need at least 1", c.Channels)
	}
	if c.Workers < 0 {
		return c, fmt.Errorf("load: negative workers %d", c.Workers)
	}
	c.Density = c.density()
	switch c.Variant {
	case VariantInterned, VariantService:
	default:
		return c, fmt.Errorf("load: unknown variant %q (want one of %v)", c.Variant, Variants())
	}
	if c.EpochSeconds == 0 {
		c.EpochSeconds = 1
	}
	if c.EpochSeconds < 0 {
		return c, fmt.Errorf("load: negative epoch seconds %v", c.EpochSeconds)
	}
	if c.RateLimit < 0 {
		return c, fmt.Errorf("load: negative rate limit %v", c.RateLimit)
	}
	for what, rate := range map[string]float64{"drop": c.Chaos.DropFrame, "dup": c.Chaos.DupFrame} {
		if rate < 0 || rate > 1 {
			return c, fmt.Errorf("load: chaos %s rate %v outside [0,1]", what, rate)
		}
	}
	if c.Variant == VariantService {
		a := &c.Arrival
		if a.Horizon == 0 {
			a.Horizon = float64(c.Rounds) * c.EpochSeconds
		}
		if a.Process == "" {
			a.Process = "poisson"
			if a.ResubmitFrac == 0 && a.DepartFrac == 0 {
				a.ResubmitFrac, a.DepartFrac = 0.2, 0.05
			}
		}
		if err := a.Validate(); err != nil {
			return c, err
		}
	}
	return c, nil
}

// fixture is the protocol agreement every run executes under, derived
// from the config alone.
type fixture struct {
	params core.Params
	ring   *mask.KeyRing
	policy core.DisguisePolicy
	points []geo.Point
	mix    dataset.DensityMix
}

func buildFixture(c Config) (*fixture, error) {
	mix, err := dataset.ParseDensity(c.Density)
	if err != nil {
		return nil, err
	}
	grid := geo.Grid{Rows: 100, Cols: 100, SideMeters: 75_000}
	params := core.Params{
		Channels: c.Channels, Lambda: mix.Lambda,
		MaxX: uint64(grid.Cols - 1), MaxY: uint64(grid.Rows - 1), BMax: 100,
	}
	ring, err := mask.DeriveKeyRing([]byte(fmt.Sprintf("lppa-load:%d", c.Seed)), c.Channels, 5, 8)
	if err != nil {
		return nil, err
	}
	popRng := rand.New(rand.NewSource(epoch.EpochSeed(c.Seed^saltPopulation, 0)))
	return &fixture{
		params: params,
		ring:   ring,
		policy: core.DisguisePolicy{P0: 0.6, Decay: 0.95},
		points: mix.Points(grid, c.Bidders, popRng),
		mix:    mix,
	}, nil
}

// bidsFor draws one bidder's per-channel valuations: a quarter of
// (bidder, channel) pairs sit out with a zero bid, the rest bid uniformly
// in [1, BMax].
func bidsFor(rng *rand.Rand, channels int, bmax uint64) []uint64 {
	bids := make([]uint64, channels)
	for ch := range bids {
		if rng.Intn(4) > 0 {
			bids[ch] = 1 + uint64(rng.Int63n(int64(bmax)))
		}
	}
	return bids
}

// chaosStream draws drop/dup decisions in a fixed two-draws-per-frame
// order (the faults package's schedule discipline): enabling one fault
// class never re-times the other's stream.
type chaosStream struct {
	rng  *rand.Rand
	drop float64
	dup  float64
}

func newChaosStream(seed int64, cfg faults.Config) *chaosStream {
	return &chaosStream{
		rng:  rand.New(rand.NewSource(epoch.EpochSeed(seed^saltChaos, 0))),
		drop: cfg.DropFrame,
		dup:  cfg.DupFrame,
	}
}

func (c *chaosStream) next() (drop, dup bool) {
	drop = c.rng.Float64() < c.drop
	dup = c.rng.Float64() < c.dup
	return drop, dup
}

// Run executes one workload run and reports it. The accounting fields of
// the result are a pure function of cfg (see RunReport.StripTiming); the
// timing fields are measured.
func Run(cfg Config) (*RunReport, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	fx, err := buildFixture(cfg)
	if err != nil {
		return nil, err
	}
	rep := &RunReport{
		Name: cfg.Name(), Variant: cfg.Variant, Density: cfg.Density,
		Bidders: cfg.Bidders, Workers: cfg.Workers,
		Rounds: cfg.Rounds,
	}
	tracer := obs.NewTracerBuffered("load", spanBudget(cfg))
	agg := obs.NewSpanAggregator()
	digest := sha256.New()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	if cfg.Variant == VariantService {
		err = runService(cfg, fx, tracer, agg, digest, rep)
	} else {
		err = runRounds(cfg, fx, tracer, agg, digest, rep)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}

	rep.AwardDigest = hex.EncodeToString(digest.Sum(nil))
	rep.WallSeconds = wall.Seconds()
	if rep.WallSeconds > 0 {
		if rep.Epochs > 0 {
			rep.EpochsPerSec = float64(rep.Epochs) / rep.WallSeconds
			rep.RoundsPerSec = rep.EpochsPerSec
		} else {
			rep.RoundsPerSec = float64(rep.Rounds) / rep.WallSeconds
		}
	}
	executed := rep.Rounds
	if cfg.Variant == VariantService {
		executed = rep.Epochs
	}
	if executed > 0 {
		rep.AllocsPerRound = float64(after.Mallocs-before.Mallocs) / float64(executed)
	}
	rep.Phases = phaseStats(agg)
	return rep, nil
}

// spanBudget sizes the tracer ring so a full run's spans fit: one root
// plus ~6 phase spans per round.
func spanBudget(cfg Config) int {
	const perRound = 8
	budget := cfg.Rounds * perRound
	if budget < 4096 {
		budget = 4096
	}
	if budget > 1<<20 {
		budget = 1 << 20
	}
	return budget
}

func phaseStats(agg *obs.SpanAggregator) map[string]PhaseStats {
	phases := make(map[string]PhaseStats)
	for _, name := range agg.Names() {
		s := agg.Summary(name)
		phases[name] = PhaseStats{
			Count:  s.Count(),
			P50Ms:  ms(s.Quantile(0.50)),
			P95Ms:  ms(s.Quantile(0.95)),
			P99Ms:  ms(s.Quantile(0.99)),
			MaxMs:  ms(s.Max()),
			MeanMs: ms(s.Mean()),
		}
	}
	return phases
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// roundOptions builds the round.Run options every variant shares. Every
// variant runs the seeded pipeline (WithWorkers), so worker count changes
// cost, never outcomes.
func roundOptions(cfg Config, tracer *obs.Tracer) []round.Option {
	opts := []round.Option{round.WithWorkers(cfg.Workers), round.WithTrace(tracer)}
	if cfg.Registry != nil {
		opts = append(opts, round.WithObserver(cfg.Registry))
	}
	return opts
}

// runRounds is the closed-loop driver: Rounds back-to-back one-shot
// rounds over the full population, minus any chaos-dropped submissions.
func runRounds(cfg Config, fx *fixture, tracer *obs.Tracer, agg *obs.SpanAggregator, digest io.Writer, rep *RunReport) error {
	opts := roundOptions(cfg, tracer)
	chaos := newChaosStream(cfg.Seed, cfg.Chaos)
	present := make([]int, 0, cfg.Bidders)
	pts := make([]geo.Point, 0, cfg.Bidders)
	bids := make([][]uint64, 0, cfg.Bidders)
	for r := 0; r < cfg.Rounds; r++ {
		bidRng := rand.New(rand.NewSource(epoch.EpochSeed(cfg.Seed^saltBids, r)))
		present, pts, bids = present[:0], pts[:0], bids[:0]
		for b := 0; b < cfg.Bidders; b++ {
			bb := bidsFor(bidRng, cfg.Channels, fx.params.BMax)
			drop, dup := chaos.next()
			rep.Submitted++
			if dup {
				// A duplicated frame arrives twice; submission handling is
				// idempotent, so it costs accounting, not outcomes.
				rep.Submitted++
				rep.Duplicated++
			}
			if drop {
				rep.Dropped++
				continue
			}
			rep.Admitted++
			present = append(present, b)
			pts = append(pts, fx.points[b])
			bids = append(bids, bb)
		}
		if len(present) < cfg.Bidders {
			rep.Degraded++
		}
		if len(present) == 0 {
			continue
		}
		rng := rand.New(rand.NewSource(epoch.EpochSeed(cfg.Seed, r)))
		res, err := round.Run(fx.params, fx.ring, round.Input{
			Points: pts, Bids: bids, Policy: fx.policy, Rng: rng,
		}, opts...)
		if err != nil {
			return fmt.Errorf("load: round %d: %w", r, err)
		}
		writeAward(digest, r, present, res)
		rep.Winners += res.Outcome.SatisfiedBidders
		rep.Revenue += res.Outcome.Revenue
		agg.AddSpans(tracer.Take())
	}
	return nil
}

// runService is the open-loop driver: the seeded arrival/churn schedule
// replays through the epochal service on its logical clock, sealing every
// EpochSeconds. Chaos drops erase a submission before it arrives; dups
// double-submit (exercising latest-wins); rate-limit rejections count as
// shed load.
func runService(cfg Config, fx *fixture, tracer *obs.Tracer, agg *obs.SpanAggregator, digest io.Writer, rep *RunReport) error {
	schedRng := rand.New(rand.NewSource(epoch.EpochSeed(cfg.Seed^saltSchedule, 0)))
	schedule, err := sim.BuildSchedule(cfg.Arrival, cfg.Bidders, schedRng)
	if err != nil {
		return err
	}
	var adm epoch.AdmissionConfig
	if cfg.RateLimit > 0 {
		burst := cfg.RateLimit
		if burst < 1 {
			burst = 1
		}
		adm = epoch.AdmissionConfig{Rate: cfg.RateLimit, Burst: burst}
	}
	svc, err := epoch.New(epoch.Config{
		Params: fx.params, Ring: fx.ring, Seed: cfg.Seed, Policy: fx.policy,
		Admission:    adm,
		RoundOptions: roundOptions(cfg, tracer),
		Registry:     cfg.Registry,
	})
	if err != nil {
		return err
	}
	// Collect on a dedicated goroutine so the 1-deep seal queue plus the
	// results buffer can never wedge a long replay (Finish's drain starts
	// too late for schedules that seal more epochs than the buffer holds).
	var results []*epoch.EpochResult
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for r := range svc.Results() {
			results = append(results, r)
		}
	}()

	chaos := newChaosStream(cfg.Seed, cfg.Chaos)
	seq := make(map[int]int, cfg.Bidders)
	nextSeal := cfg.EpochSeconds
	submit := func(ev sim.ArrivalEvent, bids []uint64) {
		rep.Submitted++
		err := svc.SubmitAt(epoch.Submission{Bidder: ev.Bidder, Point: fx.points[ev.Bidder], Bids: bids}, ev.At)
		var rl *epoch.ErrRateLimited
		switch {
		case err == nil:
			rep.Admitted++
		case errors.As(err, &rl):
			rep.Shed++
		}
	}
	for _, ev := range schedule {
		for ev.At >= nextSeal {
			if err := svc.Seal(); err != nil {
				return err
			}
			nextSeal += cfg.EpochSeconds
		}
		if ev.Kind == sim.EventDepart {
			if ok, err := svc.Withdraw(ev.Bidder); err != nil {
				return err
			} else if ok {
				rep.Departed++
			}
			continue
		}
		bids := bidsFor(rand.New(rand.NewSource(
			epoch.EpochSeed(cfg.Seed^saltBids+int64(ev.Bidder), seq[ev.Bidder]))),
			cfg.Channels, fx.params.BMax)
		seq[ev.Bidder]++
		if ev.Kind == sim.EventResubmit {
			rep.Resubmitted++
		}
		drop, dup := chaos.next()
		if drop {
			// The bidder sent it; the wire ate it.
			rep.Submitted++
			rep.Dropped++
			continue
		}
		submit(ev, bids)
		if dup {
			rep.Duplicated++
			submit(ev, bids)
		}
	}
	// Close seals residual intake as the final epoch and drains the runner.
	if err := svc.Close(); err != nil {
		return err
	}
	<-collected

	rep.Epochs = len(results)
	for _, er := range results {
		if er.Err != nil {
			rep.Degraded++
			fmt.Fprintf(digest, "epoch %d error %v\n", er.Epoch, er.Err)
			continue
		}
		if len(er.Result.Excluded) > 0 {
			rep.Degraded++
		}
		writeAward(digest, er.Epoch, er.Bidders, er.Result)
		rep.Winners += er.Result.Outcome.SatisfiedBidders
		rep.Revenue += er.Result.Outcome.Revenue
	}
	agg.AddSpans(tracer.Take())
	return nil
}

// writeAward appends one round's award transcript to the digest: the
// participating external bidder ids, every (bidder, channel, charge)
// award, and the round totals. Byte-identical transcripts — and therefore
// equal digests — are the determinism contract two same-seed runs must
// meet.
func writeAward(w io.Writer, epochID int, bidders []int, res *round.Result) {
	fmt.Fprintf(w, "epoch %d bidders %d [", epochID, len(bidders))
	for _, id := range bidders {
		fmt.Fprintf(w, " %d", id)
	}
	fmt.Fprint(w, " ]\n")
	for i, as := range res.Outcome.Assignments {
		fmt.Fprintf(w, "award bidder %d channel %d charge %d\n",
			bidders[as.Bidder], as.Channel, res.Outcome.Charges[i])
	}
	fmt.Fprintf(w, "revenue %d satisfied %d voided %d excluded %v\n",
		res.Outcome.Revenue, res.Outcome.SatisfiedBidders, res.Voided, res.Excluded)
}
