package sim

import (
	"fmt"
	"math/rand"

	"lppa/internal/attack"
	"lppa/internal/bidder"
	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/privacy"
	"lppa/internal/round"
	"lppa/internal/stats"
)

// Fig5Config drives the LPPA-effectiveness experiments (Fig. 5).
type Fig5Config struct {
	// Bidders is the population size N per round.
	Bidders int
	// Channels is the auctioned channel count k.
	Channels int
	// ZeroReplace sweeps 1−p0 (the x axis of Fig. 5(a)–(f)).
	ZeroReplace []float64
	// KeepFractions are the attacker's t-largest selections (the paper
	// uses 25 %, 50 %, 66 %, 80 %).
	KeepFractions []float64
	// Decay shapes the disguise distribution (1 = uniform).
	Decay float64
	// Lambda is the interference half-range in cells.
	Lambda uint64
	// RD and CR are the TTP's blinding parameters.
	RD, CR uint64
	// Trials repeats each (N, 1−p0) cell with fresh populations and keys
	// and reports mean ± 95 % CI (1 when zero).
	Trials int
	// Workers > 1 runs the private rounds through the deterministic
	// parallel pipeline (round.Run with WithWorkers): concurrent submission
	// encoding, identical results for any worker count. 0 or 1 keeps the
	// legacy serial driver, whose rng consumption order (and hence exact
	// tables) predates the parallel path.
	Workers int
	// Density, when non-nil, overrides the uniform bidder placement with a
	// named density mix (dense-urban, sparse-rural, or mixed geometry from
	// internal/dataset). Only MetricsRound honors it today; the Fig. 5
	// sweeps keep the paper's uniform placement.
	Density *dataset.DensityMix
	// Quorum lets each private round degrade gracefully (round.WithQuorum):
	// a bidder whose submission cannot be encoded is excluded as long as
	// Quorum usable submissions remain. It bounds who participates, never
	// how the admitted set allocates; on a healthy run results are
	// unchanged.
	Quorum int
	// Telemetry reports every private round the experiment runs
	// (round.WithTelemetry): phase timings, comparison counters and round
	// totals in Metrics, a span tree per round in Tracer, and each traced
	// round in Flight, which auto-dumps on failure or degradation. Results
	// are bit-identical whatever it holds.
	Telemetry obs.Telemetry
}

// runPrivate dispatches one private round through the serial or parallel
// pipeline of round.Run according to cfg.Workers.
func (cfg Fig5Config) runPrivate(params core.Params, ring *mask.KeyRing, pts []geo.Point, bids [][]uint64,
	policy core.DisguisePolicy, rng *rand.Rand) (*round.Result, error) {
	opts := []round.Option{round.WithTelemetry(cfg.Telemetry)}
	if cfg.Workers > 1 {
		opts = append(opts, round.WithWorkers(cfg.Workers))
	}
	if cfg.Quorum > 0 {
		opts = append(opts, round.WithQuorum(cfg.Quorum))
	}
	return round.Run(params, ring, round.Input{Points: pts, Bids: bids, Policy: policy, Rng: rng}, opts...)
}

// DefaultFig5Config mirrors the paper's setup in Area 3.
func DefaultFig5Config() Fig5Config {
	return Fig5Config{
		Bidders:       100,
		Channels:      129,
		ZeroReplace:   []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		KeepFractions: []float64{0.25, 0.5, 0.66, 0.8},
		Decay:         0.95,
		Lambda:        2,
		RD:            5,
		CR:            8,
	}
}

// Fig5Point is one (1−p0, keep fraction) cell of the privacy matrix.
type Fig5Point struct {
	ZeroReplace  float64
	KeepFraction float64
	// UnderLPPA is the BCM attack evaluated on the LPPA transcript.
	UnderLPPA privacy.Aggregate
}

// Fig5Baseline is the no-LPPA reference the panels compare against.
type Fig5Baseline struct {
	BCM privacy.Aggregate
	BPM privacy.Aggregate
}

// Fig5AD runs the privacy side of the evaluation in one area (the paper
// uses Area 3): the baseline BCM/BPM attacks on plaintext submissions, and
// the t-largest BCM attack on LPPA transcripts for every (1−p0, fraction)
// pair. BPM under LPPA is impossible by construction (per-channel keys
// destroy cross-channel order), which is the paper's headline claim.
func Fig5AD(area *dataset.Area, cfg Fig5Config, seed int64) ([]Fig5Point, Fig5Baseline, error) {
	var baseline Fig5Baseline
	sc, err := NewScenario(area, min(cfg.Channels, area.NumChannels()), cfg.Lambda)
	if err != nil {
		return nil, baseline, err
	}
	rng := rand.New(rand.NewSource(seed))
	pop, err := bidder.NewPopulation(area, cfg.Bidders, sc.BidCfg, rng)
	if err != nil {
		return nil, baseline, err
	}
	bids := sc.TruncatedBids(pop)

	// Baseline (no LPPA): plaintext BCM and BPM.
	var bcmReps, bpmReps []privacy.Report
	for i, su := range pop.SUs {
		p, err := attack.BCMFromBids(area, bids[i])
		if err != nil {
			return nil, baseline, err
		}
		bcmReps = append(bcmReps, privacy.Evaluate(p, su.Cell))
		res, err := attack.BPM(area, p, bids[i], attack.BPMConfig{KeepFraction: 0.5, MaxCells: 250})
		if err != nil {
			bpmReps = append(bpmReps, privacy.Evaluate(p, su.Cell))
			continue
		}
		bpmReps = append(bpmReps, privacy.Evaluate(res.Selected, su.Cell))
	}
	baseline.BCM = privacy.Summarize(bcmReps)
	baseline.BPM = privacy.Summarize(bpmReps)

	// LPPA transcripts for each zero-replace probability.
	var points []Fig5Point
	for zi, zr := range cfg.ZeroReplace {
		ring, err := mask.DeriveKeyRing([]byte(fmt.Sprintf("fig5-%d-%d", seed, zi)), sc.Params.Channels, cfg.RD, cfg.CR)
		if err != nil {
			return nil, baseline, err
		}
		policy := core.DisguisePolicy{P0: 1 - zr, Decay: cfg.Decay}
		res, err := cfg.runPrivate(sc.Params, ring, Points(pop), bids, policy, rand.New(rand.NewSource(seed+int64(zi)*101)))
		if err != nil {
			return nil, baseline, err
		}
		rankings := res.Auctioneer.Rankings()
		for _, frac := range cfg.KeepFractions {
			observed, err := attack.TopFractionChannels(rankings, pop.N(), frac)
			if err != nil {
				return nil, baseline, err
			}
			var reps []privacy.Report
			for i, su := range pop.SUs {
				// The attacker uses the robust (argmax-consistency) BCM:
				// plain intersection goes empty as soon as a single
				// disguised zero poisons an observation.
				p, _, err := attack.BCMRobust(area, observed[i])
				if err != nil {
					return nil, baseline, err
				}
				reps = append(reps, privacy.Evaluate(p, su.Cell))
			}
			points = append(points, Fig5Point{
				ZeroReplace:  zr,
				KeepFraction: frac,
				UnderLPPA:    privacy.Summarize(reps),
			})
		}
	}
	return points, baseline, nil
}

// Fig5ADTable renders the privacy panels.
func Fig5ADTable(points []Fig5Point, baseline Fig5Baseline) *Table {
	t := &Table{
		Title:   "Fig.5(a)-(d): attack metrics under LPPA vs zero-replace probability (Area 3)",
		Columns: []string{"1-p0", "keep", "cells", "uncertainty(b)", "incorrectness(m)", "failure"},
	}
	t.AddRow("no-LPPA BCM", "-",
		fmt.Sprintf("%.1f", baseline.BCM.PossibleCells),
		fmt.Sprintf("%.2f", baseline.BCM.Uncertainty),
		fmt.Sprintf("%.0f", baseline.BCM.Incorrectness),
		fmt.Sprintf("%.1f%%", 100*baseline.BCM.FailureRate))
	t.AddRow("no-LPPA BPM", "0.5",
		fmt.Sprintf("%.1f", baseline.BPM.PossibleCells),
		fmt.Sprintf("%.2f", baseline.BPM.Uncertainty),
		fmt.Sprintf("%.0f", baseline.BPM.Incorrectness),
		fmt.Sprintf("%.1f%%", 100*baseline.BPM.FailureRate))
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%.1f", p.ZeroReplace),
			fmt.Sprintf("%.2f", p.KeepFraction),
			fmt.Sprintf("%.1f", p.UnderLPPA.PossibleCells),
			fmt.Sprintf("%.2f", p.UnderLPPA.Uncertainty),
			fmt.Sprintf("%.0f", p.UnderLPPA.Incorrectness),
			fmt.Sprintf("%.1f%%", 100*p.UnderLPPA.FailureRate),
		)
	}
	return t
}

// Fig5EFPoint is one (N, 1−p0) cell of the performance matrix. The
// primary fields use the paper's batch charging (a voided award consumed
// the winner's row and the channel slot); the Interactive fields measure
// the per-award TTP validity-check design, an ablation in which a void
// withdraws the channel for the round instead. Batch reproduces the
// paper's decreasing revenue curve; the interactive design turns out to
// *raise* revenue by pruning low-value fringe columns (see
// EXPERIMENTS.md).
type Fig5EFPoint struct {
	Bidders     int
	ZeroReplace float64
	// RevenueRatio is LPPA winning-bid sum over the plain baseline's
	// (batch charging, the paper's design).
	RevenueRatio float64
	// SatisfactionRatio is LPPA user satisfaction over the baseline's
	// (batch charging).
	SatisfactionRatio float64
	// Voided counts TTP-invalidated awards (batch charging).
	Voided int
	// InteractiveRevenueRatio and friends measure the ablation.
	InteractiveRevenueRatio      float64
	InteractiveSatisfactionRatio float64
	InteractiveVoided            int
	// RevenueCI and SatisfactionCI are 95 % confidence half-widths when
	// the experiment ran multiple trials (0 otherwise).
	RevenueCI      float64
	SatisfactionCI float64
}

// Fig5EF measures the auction-performance cost of LPPA (Fig. 5(e)(f)):
// for each population size and zero-replace probability, the ratio of
// private-auction revenue/satisfaction to the plaintext baseline on the
// same population. With cfg.Trials > 1 every cell averages that many
// independent populations and key rings, and the point carries 95 %
// confidence half-widths.
func Fig5EF(area *dataset.Area, cfg Fig5Config, populations []int, seed int64) ([]Fig5EFPoint, error) {
	trials := cfg.Trials
	if trials < 1 {
		trials = 1
	}
	var out []Fig5EFPoint
	for _, n := range populations {
		sc, err := NewScenario(area, min(cfg.Channels, area.NumChannels()), cfg.Lambda)
		if err != nil {
			return nil, err
		}
		for zi, zr := range cfg.ZeroReplace {
			col := stats.NewCollector()
			policy := core.DisguisePolicy{P0: 1 - zr, Decay: cfg.Decay}
			for trial := 0; trial < trials; trial++ {
				tSeed := seed + int64(n)*1009 + int64(zi)*97 + int64(trial)*31
				rng := rand.New(rand.NewSource(tSeed))
				pop, err := bidder.NewPopulation(area, n, sc.BidCfg, rng)
				if err != nil {
					return nil, err
				}
				bids := sc.TruncatedBids(pop)
				pts := Points(pop)
				base, err := round.RunPlainBaseline(pts, bids, sc.Params.Lambda, rand.New(rand.NewSource(tSeed+1)))
				if err != nil {
					return nil, err
				}
				ring, err := mask.DeriveKeyRing([]byte(fmt.Sprintf("fig5ef-%d-%d-%d-%d", seed, n, zi, trial)), sc.Params.Channels, cfg.RD, cfg.CR)
				if err != nil {
					return nil, err
				}
				inter, err := round.Run(sc.Params, ring, round.Input{Points: pts, Bids: bids, Policy: policy, Rng: rand.New(rand.NewSource(tSeed + 2))}, round.WithInteractiveCharging())
				if err != nil {
					return nil, err
				}
				batch, err := cfg.runPrivate(sc.Params, ring, pts, bids, policy, rand.New(rand.NewSource(tSeed+3)))
				if err != nil {
					return nil, err
				}
				if base.Revenue > 0 {
					col.Add("rev", float64(batch.Outcome.Revenue)/float64(base.Revenue))
					col.Add("irev", float64(inter.Outcome.Revenue)/float64(base.Revenue))
				}
				if base.Satisfaction() > 0 {
					col.Add("sat", batch.Outcome.Satisfaction()/base.Satisfaction())
					col.Add("isat", inter.Outcome.Satisfaction()/base.Satisfaction())
				}
				col.Add("voided", float64(batch.Voided))
				col.Add("ivoided", float64(inter.Voided))
			}
			pt := Fig5EFPoint{
				Bidders:                      n,
				ZeroReplace:                  zr,
				RevenueRatio:                 col.Summary("rev").Mean,
				SatisfactionRatio:            col.Summary("sat").Mean,
				Voided:                       int(col.Summary("voided").Mean + 0.5),
				InteractiveRevenueRatio:      col.Summary("irev").Mean,
				InteractiveSatisfactionRatio: col.Summary("isat").Mean,
				InteractiveVoided:            int(col.Summary("ivoided").Mean + 0.5),
				RevenueCI:                    col.Summary("rev").CI95(),
				SatisfactionCI:               col.Summary("sat").CI95(),
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// Fig5EFTable renders the performance panels.
func Fig5EFTable(points []Fig5EFPoint) *Table {
	t := &Table{
		Title:   "Fig.5(e)(f): LPPA auction performance relative to plain auction (Area 3)",
		Columns: []string{"N", "1-p0", "revenue", "satisfaction", "voided", "revenue(iTTP)", "satisfaction(iTTP)", "voided(iTTP)"},
	}
	for _, p := range points {
		rev := fmt.Sprintf("%.3f", p.RevenueRatio)
		sat := fmt.Sprintf("%.3f", p.SatisfactionRatio)
		if p.RevenueCI > 0 {
			rev = fmt.Sprintf("%.3f±%.3f", p.RevenueRatio, p.RevenueCI)
			sat = fmt.Sprintf("%.3f±%.3f", p.SatisfactionRatio, p.SatisfactionCI)
		}
		t.AddRow(
			fmt.Sprintf("%d", p.Bidders),
			fmt.Sprintf("%.1f", p.ZeroReplace),
			rev,
			sat,
			fmt.Sprintf("%d", p.Voided),
			fmt.Sprintf("%.3f", p.InteractiveRevenueRatio),
			fmt.Sprintf("%.3f", p.InteractiveSatisfactionRatio),
			fmt.Sprintf("%d", p.InteractiveVoided),
		)
	}
	return t
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
