// Benchmark harness: one benchmark per table/figure of the paper (see
// DESIGN.md §4 for the experiment index), plus microbenchmarks for the
// protocol primitives and ablation benchmarks for the design choices of
// DESIGN.md §5. Figure benchmarks report their headline quantity through
// b.ReportMetric so `go test -bench` output doubles as a results table.
//
// Reproduce everything with:
//
//	go test -bench=. -benchmem
package lppa_test

import (
	cryptorand "crypto/rand"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lppa"
	"lppa/internal/attack"
	"lppa/internal/auction"
	"lppa/internal/bidder"
	"lppa/internal/conflict"
	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/epoch"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/paillier"
	"lppa/internal/prefix"
	"lppa/internal/privacy"
	"lppa/internal/radio"
	"lppa/internal/round"
	"lppa/internal/sim"
	"lppa/internal/theory"
	"lppa/internal/ttp"
)

// benchDataset is a shared, reduced-scale dataset (50×50 cells, 32
// channels) so the full benchmark suite completes in minutes. cmd/lppa-sim
// reproduces the figures at full paper scale.
var (
	benchOnce sync.Once
	benchDS   *dataset.Dataset
)

func benchDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	benchOnce.Do(func() {
		cfg := dataset.DefaultConfig()
		cfg.Grid = geo.Grid{Rows: 50, Cols: 50, SideMeters: 75_000}
		cfg.Channels = 32
		ds, err := dataset.Generate(cfg, 42)
		if err != nil {
			panic(err)
		}
		benchDS = ds
	})
	return benchDS
}

func benchPopulation(b *testing.B, area *dataset.Area, n int) *bidder.Population {
	b.Helper()
	pop, err := bidder.NewPopulation(area, n, bidder.DefaultConfig(), rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return pop
}

// --- Figure benchmarks -------------------------------------------------

// BenchmarkFig1bCoverage regenerates a coverage map (Fig. 1(b)) at the
// paper's full 100×100 resolution.
func BenchmarkFig1bCoverage(b *testing.B) {
	g := geo.DefaultGrid()
	model := radio.PathLoss{Exponent: 3.0, RefLossDB: 88, RefDistM: 1000, ShadowSigmaDB: 6, ShadowCorrM: 5000, Seed: 1}
	ch := radio.Channel{ID: 1, Towers: []radio.Tower{{X: 30_000, Y: 40_000, PowerDBm: 52}}}
	b.ResetTimer()
	var avail int
	for i := 0; i < b.N; i++ {
		cm := radio.ComputeCoverage(g, ch, model, radio.FCCThresholdDBm)
		avail = cm.Available.Count()
	}
	b.ReportMetric(float64(avail), "available-cells")
}

// BenchmarkFig4aPossibleCells runs the BCM attack of Fig. 4(a): possible-
// cell count per victim in the rural area.
func BenchmarkFig4aPossibleCells(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[3]
	pop := benchPopulation(b, area, 20)
	b.ResetTimer()
	var cells float64
	for i := 0; i < b.N; i++ {
		var reports []privacy.Report
		for v, su := range pop.SUs {
			p, err := attack.BCMFromBids(area, pop.Bids[v])
			if err != nil {
				b.Fatal(err)
			}
			reports = append(reports, privacy.Evaluate(p, su.Cell))
		}
		cells = privacy.Summarize(reports).PossibleCells
	}
	b.ReportMetric(cells, "BCM-cells")
}

// BenchmarkFig4bSuccessRate runs the BPM attack of Fig. 4(b): success rate
// with a 1/4 keep fraction.
func BenchmarkFig4bSuccessRate(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[3]
	pop := benchPopulation(b, area, 20)
	b.ResetTimer()
	var success float64
	for i := 0; i < b.N; i++ {
		var reports []privacy.Report
		for v, su := range pop.SUs {
			p, err := attack.BCMFromBids(area, pop.Bids[v])
			if err != nil {
				b.Fatal(err)
			}
			res, err := attack.BPM(area, p, pop.Bids[v], attack.BPMConfig{KeepFraction: 0.25, MaxCells: 250})
			if err != nil {
				reports = append(reports, privacy.Evaluate(p, su.Cell))
				continue
			}
			reports = append(reports, privacy.Evaluate(res.Selected, su.Cell))
		}
		success = privacy.Summarize(reports).SuccessRate
	}
	b.ReportMetric(100*success, "BPM-success-%")
}

// BenchmarkFig4cAreas runs the four-area comparison of Fig. 4(c).
func BenchmarkFig4cAreas(b *testing.B) {
	ds := benchDataset(b)
	b.ResetTimer()
	var ruralCells, urbanCells float64
	for i := 0; i < b.N; i++ {
		points, err := sim.Fig4C(ds, 10, 32, 250, 7)
		if err != nil {
			b.Fatal(err)
		}
		urbanCells = points[0].BCM.PossibleCells
		ruralCells = points[3].BCM.PossibleCells
	}
	b.ReportMetric(urbanCells, "urban-BCM-cells")
	b.ReportMetric(ruralCells, "rural-BCM-cells")
}

// fig5Round runs one LPPA round in the suburban area and returns the
// transcript attack aggregate plus the round result.
func fig5Round(b *testing.B, zeroReplace, keep float64, seed int64) (privacy.Aggregate, *round.Result) {
	b.Helper()
	ds := benchDataset(b)
	area := ds.Areas[2]
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	pop := benchPopulation(b, area, 30)
	ring, err := mask.DeriveKeyRing([]byte("bench-fig5"), sc.Params.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	res, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
		Policy: core.DisguisePolicy{P0: 1 - zeroReplace, Decay: 0.95}, Rng: rand.New(rand.NewSource(seed))})
	if err != nil {
		b.Fatal(err)
	}
	observed, err := attack.TopFractionChannels(res.Auctioneer.Rankings(), pop.N(), keep)
	if err != nil {
		b.Fatal(err)
	}
	var reports []privacy.Report
	for i, su := range pop.SUs {
		p, err := attack.BCM(area, observed[i])
		if err != nil {
			b.Fatal(err)
		}
		reports = append(reports, privacy.Evaluate(p, su.Cell))
	}
	return privacy.Summarize(reports), res
}

// BenchmarkFig5aUncertainty measures attacker uncertainty under LPPA.
func BenchmarkFig5aUncertainty(b *testing.B) {
	var agg privacy.Aggregate
	for i := 0; i < b.N; i++ {
		agg, _ = fig5Round(b, 0.5, 0.5, int64(i))
	}
	b.ReportMetric(agg.Uncertainty, "bits")
}

// BenchmarkFig5bIncorrectness measures attacker incorrectness under LPPA.
func BenchmarkFig5bIncorrectness(b *testing.B) {
	var agg privacy.Aggregate
	for i := 0; i < b.N; i++ {
		agg, _ = fig5Round(b, 0.5, 0.5, int64(i))
	}
	b.ReportMetric(agg.Incorrectness/1000, "km")
}

// BenchmarkFig5cPossibleCells measures the possible-cell count under LPPA.
func BenchmarkFig5cPossibleCells(b *testing.B) {
	var agg privacy.Aggregate
	for i := 0; i < b.N; i++ {
		agg, _ = fig5Round(b, 0.5, 0.5, int64(i))
	}
	b.ReportMetric(agg.PossibleCells, "cells")
}

// BenchmarkFig5dFailureRate measures BCM failure rate under LPPA.
func BenchmarkFig5dFailureRate(b *testing.B) {
	var agg privacy.Aggregate
	for i := 0; i < b.N; i++ {
		agg, _ = fig5Round(b, 0.5, 0.5, int64(i))
	}
	b.ReportMetric(100*agg.FailureRate, "failure-%")
}

// BenchmarkFig5eRevenue measures the revenue cost of LPPA at 1−p0 = 0.5.
func BenchmarkFig5eRevenue(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	base, err := round.RunPlainBaseline(sim.Points(pop), pop.Bids, sc.Params.Lambda, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, res := fig5Round(b, 0.5, 0.5, int64(i))
		ratio = float64(res.Outcome.Revenue) / float64(base.Revenue)
	}
	b.ReportMetric(ratio, "revenue-ratio")
}

// BenchmarkFig5fSatisfaction measures the satisfaction cost of LPPA.
func BenchmarkFig5fSatisfaction(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	base, err := round.RunPlainBaseline(sim.Points(pop), pop.Bids, sc.Params.Lambda, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var ratio float64
	for i := 0; i < b.N; i++ {
		_, res := fig5Round(b, 0.5, 0.5, int64(i))
		ratio = res.Outcome.Satisfaction() / base.Satisfaction()
	}
	b.ReportMetric(ratio, "satisfaction-ratio")
}

// --- Theorem benchmarks -------------------------------------------------

// BenchmarkTheorem1 evaluates the closed form against Monte Carlo.
func BenchmarkTheorem1(b *testing.B) {
	d := theory.UniformDist(100)
	rng := rand.New(rand.NewSource(1))
	var closed, mc float64
	for i := 0; i < b.N; i++ {
		var err error
		closed, err = theory.Theorem1(d, 80, 20)
		if err != nil {
			b.Fatal(err)
		}
		mc, err = theory.MonteCarloTheorem1(d, 80, 20, 10_000, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(closed, "closed-form")
	b.ReportMetric(mc, "monte-carlo")
}

// BenchmarkTheorem2 evaluates the t-largest no-leak probability.
func BenchmarkTheorem2(b *testing.B) {
	d := theory.UniformDist(100)
	rng := rand.New(rand.NewSource(2))
	var closed, mc float64
	for i := 0; i < b.N; i++ {
		var err error
		closed, err = theory.Theorem2(d, 80, 20, 3)
		if err != nil {
			b.Fatal(err)
		}
		mc, err = theory.MonteCarloTheorem2(d, 80, 20, 3, 10_000, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(closed, "closed-form")
	b.ReportMetric(mc, "monte-carlo")
}

// BenchmarkTheorem3 evaluates E[μ] under uniform disguising.
func BenchmarkTheorem3(b *testing.B) {
	bids := []int{10, 25, 50, 75}
	rng := rand.New(rand.NewSource(3))
	var closed, mc float64
	for i := 0; i < b.N; i++ {
		var err error
		closed, err = theory.Theorem3(100, bids, 15, 2)
		if err != nil {
			b.Fatal(err)
		}
		mc, err = theory.MonteCarloTheorem3(100, bids, 15, 2, 5_000, rng)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(closed, "closed-form")
	b.ReportMetric(mc, "monte-carlo")
}

// BenchmarkTheorem4CommCost measures transcript bytes against the paper's
// h·k·N(3w−1)(w+1) prediction.
func BenchmarkTheorem4CommCost(b *testing.B) {
	p := core.Params{Channels: 16, Lambda: 2, MaxX: 49, MaxY: 49, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("thm4"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	enc, err := core.NewBidEncoder(p, ring, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	bids := make([]uint64, p.Channels)
	for r := range bids {
		bids[r] = uint64(rng.Intn(100))
	}
	w := p.BidWidth(ring)
	predicted, err := theory.Theorem4Bits(mask.DigestSize*8, w, p.Channels, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var measured int
	for i := 0; i < b.N; i++ {
		sub, err := enc.Encode(bids, rng)
		if err != nil {
			b.Fatal(err)
		}
		measured = core.SubmissionBytes(sub)
	}
	b.ReportMetric(float64(measured), "measured-bytes")
	b.ReportMetric(predicted/8, "predicted-digest-bytes")
}

// --- Microbenchmarks ----------------------------------------------------

func BenchmarkPrefixFamily(b *testing.B) {
	for i := 0; i < b.N; i++ {
		prefix.Family(uint64(i)&1023, 10)
	}
}

func BenchmarkPrefixCover(b *testing.B) {
	for i := 0; i < b.N; i++ {
		lo := uint64(i) & 511
		prefix.Cover(lo, 1023, 10)
	}
}

func BenchmarkMaskDigest(b *testing.B) {
	m, err := mask.NewMasker(make(mask.Key, 32))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mask(uint64(i))
	}
}

func BenchmarkMaskedCompareGE(b *testing.B) {
	p := core.Params{Channels: 1, Lambda: 1, MaxX: 9, MaxY: 9, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("cmp"), 1, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	enc, err := core.NewBidEncoder(p, ring, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	a, err := enc.Encode([]uint64{70}, rng)
	if err != nil {
		b.Fatal(err)
	}
	c, err := enc.Encode([]uint64{30}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CompareGE(&a.Channels[0], &c.Channels[0])
	}
}

func BenchmarkLocationSubmission(b *testing.B) {
	p := core.Params{Channels: 1, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("loc"), 1, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewLocationSubmission(p, ring, geo.Point{X: uint64(i) % 100, Y: 50}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBidEncodeAdvanced(b *testing.B) {
	p := core.Params{Channels: 32, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("enc"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	sampler, err := core.NewDisguiseSampler(core.DefaultDisguise(), p.BMax)
	if err != nil {
		b.Fatal(err)
	}
	enc, err := core.NewBidEncoder(p, ring, sampler, rng)
	if err != nil {
		b.Fatal(err)
	}
	bids := make([]uint64, p.Channels)
	for r := range bids {
		bids[r] = uint64(rng.Intn(101))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(bids, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrivateConflictGraph is the auctioneer's conflict-graph build
// over N=50 masked submissions.
func BenchmarkPrivateConflictGraph(b *testing.B) {
	p := core.Params{Channels: 1, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("graph"), 1, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 50
	subs := make([]*core.LocationSubmission, n)
	for i := range subs {
		var err error
		subs[i], err = core.NewLocationSubmission(p, ring,
			geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineGraph(b, p, subs)
	}
}

func BenchmarkPrivateRound(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := mask.DeriveKeyRing([]byte("round"), sc.Params.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
			Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlainRound(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := round.RunPlainBaseline(sim.Points(pop), pop.Bids, 2,
			rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks ------------------------------------------------

// BenchmarkAblationBasicVsAdvancedEncoding compares the basic scheme
// (shared key, no padding/blinding) against the advanced scheme, exposing
// the cost of the privacy fixes.
func BenchmarkAblationBasicVsAdvancedEncoding(b *testing.B) {
	p := core.Params{Channels: 16, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("abl"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	bids := make([]uint64, p.Channels)
	for r := range bids {
		bids[r] = uint64((r * 13) % 101)
	}
	b.Run("basic", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		enc, err := core.NewBasicBidEncoder(p, ring, rng)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int
		for i := 0; i < b.N; i++ {
			sub, err := enc.Encode(bids, rng)
			if err != nil {
				b.Fatal(err)
			}
			bytes = core.SubmissionBytes(sub)
		}
		b.ReportMetric(float64(bytes), "bytes")
	})
	b.Run("advanced", func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		enc, err := core.NewBidEncoder(p, ring, nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int
		for i := 0; i < b.N; i++ {
			sub, err := enc.Encode(bids, rng)
			if err != nil {
				b.Fatal(err)
			}
			bytes = core.SubmissionBytes(sub)
		}
		b.ReportMetric(float64(bytes), "bytes")
	})
}

// BenchmarkAblationDisguiseDecay compares geometric-decay disguising (the
// paper's p_1 ≥ … ≥ p_bmax requirement) against uniform disguising
// (Theorem 3's best-privacy corner), reporting the revenue each leaves.
func BenchmarkAblationDisguiseDecay(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := mask.DeriveKeyRing([]byte("decay"), sc.Params.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name  string
		decay float64
	}{{"geometric-0.9", 0.9}, {"uniform", 1.0}} {
		b.Run(mode.name, func(b *testing.B) {
			var revenue uint64
			for i := 0; i < b.N; i++ {
				res, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
					Policy: core.DisguisePolicy{P0: 0.5, Decay: mode.decay}, Rng: rand.New(rand.NewSource(int64(i)))})
				if err != nil {
					b.Fatal(err)
				}
				revenue = res.Outcome.Revenue
			}
			b.ReportMetric(float64(revenue), "revenue")
		})
	}
}

// BenchmarkAblationBatchVsInteractiveTTP compares the paper's batch
// charging against the interactive validity-check design.
func BenchmarkAblationBatchVsInteractiveTTP(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := mask.DeriveKeyRing([]byte("ttpmode"), sc.Params.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	policy := core.DisguisePolicy{P0: 0.5, Decay: 0.95}
	b.Run("batch", func(b *testing.B) {
		var voided int
		for i := 0; i < b.N; i++ {
			res, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
				Policy: policy, Rng: rand.New(rand.NewSource(int64(i)))})
			if err != nil {
				b.Fatal(err)
			}
			voided = res.Voided
		}
		b.ReportMetric(float64(voided), "voided")
	})
	b.Run("interactive", func(b *testing.B) {
		var voided int
		for i := 0; i < b.N; i++ {
			res, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
				Policy: policy, Rng: rand.New(rand.NewSource(int64(i)))}, round.WithInteractiveCharging())
			if err != nil {
				b.Fatal(err)
			}
			voided = res.Voided
		}
		b.ReportMetric(float64(voided), "voided")
	})
}

// BenchmarkAblationAllocationOrder compares the paper's randomized channel
// order against a fixed order.
func BenchmarkAblationAllocationOrder(b *testing.B) {
	// The engine always randomizes (faithful to Algorithm 3); fixed order
	// is emulated by reusing one seed, randomized by varying it. The
	// metric shows revenue sensitivity to the channel order.
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	pts := sim.Points(pop)
	b.Run("fixed-order", func(b *testing.B) {
		var revenue uint64
		for i := 0; i < b.N; i++ {
			out, err := round.RunPlainBaseline(pts, pop.Bids, 2, rand.New(rand.NewSource(1)))
			if err != nil {
				b.Fatal(err)
			}
			revenue = out.Revenue
		}
		b.ReportMetric(float64(revenue), "revenue")
	})
	b.Run("random-order", func(b *testing.B) {
		var total, runs uint64
		for i := 0; i < b.N; i++ {
			out, err := round.RunPlainBaseline(pts, pop.Bids, 2, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			total += out.Revenue
			runs++
		}
		b.ReportMetric(float64(total)/float64(runs), "revenue")
	})
}

// BenchmarkNetworkedRound measures one full TCP round (all parties over
// loopback).
func BenchmarkNetworkedRound(b *testing.B) {
	// Networked rounds are exercised in internal/transport tests; here we
	// only measure the in-process protocol plus gob wire conversion cost.
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 49, MaxY: 49, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("net"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	points := make([]lppa.Point, 10)
	bids := make([][]uint64, 10)
	for i := range points {
		points[i] = lppa.Point{X: uint64(rng.Intn(50)), Y: uint64(rng.Intn(50))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			bids[i][r] = uint64(rng.Intn(101))
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := round.Run(p, ring, round.Input{Points: points, Bids: bids,
			Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(int64(i)))}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiRoundLinkage runs the section V.C.3 experiment: linked vs
// mixed pseudonyms across five rounds, reporting both failure rates.
func BenchmarkMultiRoundLinkage(b *testing.B) {
	ds := benchDataset(b)
	cfg := sim.DefaultMultiRoundConfig()
	cfg.Bidders = 15
	cfg.Channels = 32
	cfg.Rounds = 5
	var linked, mixed float64
	for i := 0; i < b.N; i++ {
		points, err := sim.MultiRound(ds.Areas[2], cfg, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		linked = last.Linked.FailureRate
		mixed = last.Mixed.FailureRate
	}
	b.ReportMetric(100*linked, "linked-failure-%")
	b.ReportMetric(100*mixed, "mixed-failure-%")
}

// BenchmarkTTPBatcher measures the section V.C.2 batching scheduler: TTP
// windows used for 100 auction rounds at different batch bounds.
func BenchmarkTTPBatcher(b *testing.B) {
	p := core.Params{Channels: 4, Lambda: 2, MaxX: 49, MaxY: 49, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("batcher"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	trusted, err := ttp.FromRing(p, ring, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	enc, err := core.NewBidEncoder(p, ring, nil, rng)
	if err != nil {
		b.Fatal(err)
	}
	sub, err := enc.Encode([]uint64{10, 20, 30, 40}, rng)
	if err != nil {
		b.Fatal(err)
	}
	mkReqs := func() []core.ChargeRequest {
		var reqs []core.ChargeRequest
		for r := 0; r < p.Channels; r++ {
			reqs = append(reqs, core.ChargeRequest{
				Bidder: r, Channel: r,
				Sealed: sub.Channels[r].Sealed,
				Family: sub.Channels[r].Family.Digests(),
			})
		}
		return reqs
	}
	for _, bound := range []int{1, 10, 50} {
		b.Run(fmtBatch(bound), func(b *testing.B) {
			var windows int
			for i := 0; i < b.N; i++ {
				batcher, err := round.NewBatcher(1<<30, bound, trusted.ProcessBatch)
				if err != nil {
					b.Fatal(err)
				}
				for roundID := 0; roundID < 100; roundID++ {
					batcher.Add(roundID, mkReqs())
				}
				batcher.Flush()
				windows = batcher.Stats().Windows
			}
			b.ReportMetric(float64(windows), "ttp-windows")
		})
	}
}

func fmtBatch(bound int) string {
	if bound == 1 {
		return "per-round"
	}
	return fmt.Sprintf("batch-%d", bound)
}

// BenchmarkAblationAllocatorStrategy compares Algorithm 3 (the strongest
// greedy the masked transcript supports) against global greedy (needs the
// plaintext total order LPPA removes), quantifying the allocator freedom
// the privacy design costs.
func BenchmarkAblationAllocatorStrategy(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	pts := sim.Points(pop)
	g := conflictGraph(pts)
	b.Run("algorithm3", func(b *testing.B) {
		var revenue uint64
		for i := 0; i < b.N; i++ {
			out, err := auction.RunPlain(pop.Bids, g, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			revenue = out.Revenue
		}
		b.ReportMetric(float64(revenue), "revenue")
	})
	b.Run("global-greedy", func(b *testing.B) {
		var revenue uint64
		for i := 0; i < b.N; i++ {
			out, err := auction.RunGlobalGreedy(pop.Bids, g, rand.New(rand.NewSource(int64(i))))
			if err != nil {
				b.Fatal(err)
			}
			revenue = out.Revenue
		}
		b.ReportMetric(float64(revenue), "revenue")
	})
}

func conflictGraph(pts []lppa.Point) *conflict.Graph {
	return conflict.BuildPlain(pts, 2)
}

// BenchmarkBaselinePaillierVsPrefixMasking measures the comparison the
// paper makes against its reference [7] (Paillier-based secure auctions):
// the cost of submitting one 16-channel bid vector under each scheme, in
// time and bytes. The prefix scheme wins both by orders of magnitude —
// this is the paper's efficiency argument, measured.
func BenchmarkBaselinePaillierVsPrefixMasking(b *testing.B) {
	const channels = 16
	bids := make([]uint64, channels)
	for r := range bids {
		bids[r] = uint64((r * 13) % 101)
	}
	b.Run("lppa-prefix-masking", func(b *testing.B) {
		p := core.Params{Channels: channels, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
		ring, err := mask.DeriveKeyRing([]byte("baseline"), p.Channels, 5, 8)
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		enc, err := core.NewBidEncoder(p, ring, nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		var bytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sub, err := enc.Encode(bids, rng)
			if err != nil {
				b.Fatal(err)
			}
			bytes = core.SubmissionBytes(sub)
		}
		b.ReportMetric(float64(bytes), "submission-bytes")
	})
	b.Run("paillier-2048", func(b *testing.B) {
		key := paillierKey(b, 2048)
		var bytes int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sub, err := paillier.EncryptBids(&key.PublicKey, cryptorand.Reader, bids)
			if err != nil {
				b.Fatal(err)
			}
			bytes = sub.Bytes(&key.PublicKey)
		}
		b.ReportMetric(float64(bytes), "submission-bytes")
	})
}

var (
	paillierOnce sync.Once
	paillier2048 *paillier.PrivateKey
)

func paillierKey(b *testing.B, bits int) *paillier.PrivateKey {
	b.Helper()
	paillierOnce.Do(func() {
		k, err := paillier.GenerateKey(cryptorand.Reader, bits)
		if err != nil {
			panic(err)
		}
		paillier2048 = k
	})
	return paillier2048
}

// BenchmarkAblationPricingRule compares first-price (the paper's design)
// with second-price charging (the paper's future-work direction,
// implemented end to end through the private pipeline), reporting revenue.
func BenchmarkAblationPricingRule(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := mask.DeriveKeyRing([]byte("pricing"), sc.Params.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	policy := core.DisguisePolicy{P0: 1}
	b.Run("first-price", func(b *testing.B) {
		var revenue uint64
		for i := 0; i < b.N; i++ {
			res, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
				Policy: policy, Rng: rand.New(rand.NewSource(int64(i)))})
			if err != nil {
				b.Fatal(err)
			}
			revenue = res.Outcome.Revenue
		}
		b.ReportMetric(float64(revenue), "revenue")
	})
	b.Run("second-price", func(b *testing.B) {
		var revenue uint64
		for i := 0; i < b.N; i++ {
			res, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
				Policy: policy, Rng: rand.New(rand.NewSource(int64(i)))}, round.WithSecondPrice())
			if err != nil {
				b.Fatal(err)
			}
			revenue = res.Outcome.Revenue
		}
		b.ReportMetric(float64(revenue), "revenue")
	})
}

// --- Parallel-pipeline benchmarks ---------------------------------------

// BenchmarkZeroAllocMask times the resettable-HMAC fast path; the
// mask package's TestMaskZeroAlloc (`make alloc-guard`) pins that it does
// not allocate.
func BenchmarkZeroAllocMask(b *testing.B) {
	m, err := mask.NewMasker(make(mask.Key, 32))
	if err != nil {
		b.Fatal(err)
	}
	m.Mask(0) // prime the lazy HMAC internals
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Mask(uint64(i))
	}
}

// BenchmarkParallelMaskAll sweeps worker counts over a batch of prefix
// families (64 bidders × 16 values), the shape the submission encoders
// produce.
func BenchmarkParallelMaskAll(b *testing.B) {
	m, err := mask.NewMasker(make(mask.Key, 32))
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]uint64, 64)
	for i := range batches {
		batches[i] = make([]uint64, 16)
		for j := range batches[i] {
			batches[i][j] = uint64(i*16 + j)
		}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.ParallelMaskAll(batches, workers)
			}
		})
	}
}

// BenchmarkParallelConflictGraph sweeps worker counts over the masked
// conflict-graph build at n = 200 submissions (the acceptance-criterion
// scale; on multi-core hosts workers-4 should be ≥ 2× workers-1).
// BenchmarkParallelConflictGraph sweeps worker counts over the test
// oracle's all-pairs build (core.BuildConflictGraphParallel).
func BenchmarkParallelConflictGraph(b *testing.B) {
	p := core.Params{Channels: 1, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("pgraph"), 1, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 200
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
	}
	subs, err := core.NewLocationSubmissions(p, ring, pts, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.BuildConflictGraphParallel(subs, workers)
			}
		})
	}
}

// BenchmarkParallelPrivateRound sweeps worker counts over the full
// deterministic parallel round (encoding + graph + allocation + charging).
func BenchmarkParallelPrivateRound(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	pop := benchPopulation(b, area, 30)
	sc, err := sim.NewScenario(area, 32, 2)
	if err != nil {
		b.Fatal(err)
	}
	ring, err := mask.DeriveKeyRing([]byte("pround"), sc.Params.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			var opts []round.Option
			if workers > 1 {
				opts = append(opts, round.WithWorkers(workers))
			}
			for i := 0; i < b.N; i++ {
				if _, err := round.Run(sc.Params, ring, round.Input{Points: sim.Points(pop), Bids: pop.Bids,
					Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(int64(i)))}, opts...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRankMemoAllocation isolates the allocation-lean comparator: the
// same Algorithm 3 run answered by the per-column rank memo versus direct
// masked set intersections on every comparison.
func BenchmarkRankMemoAllocation(b *testing.B) {
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("memo"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 60
	pts := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range pts {
		pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			bids[i][r] = uint64(rng.Intn(101))
		}
	}
	locs, err := core.NewLocationSubmissions(p, ring, pts, 0)
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]*core.BidSubmission, n)
	for i := range subs {
		enc, err := core.NewBidEncoder(p, ring, nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		if subs[i], err = enc.Encode(bids[i], rng); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auc, err := core.NewAuctioneer(p, locs, subs)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := auc.Allocate(rand.New(rand.NewSource(int64(i)))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPlacementDensity compares uniform against clustered
// bidder placement: clustered populations have dense conflict graphs, so
// spectrum reuse collapses and satisfaction falls — the stress case for
// Algorithm 3's neighbor-elimination logic.
func BenchmarkAblationPlacementDensity(b *testing.B) {
	ds := benchDataset(b)
	area := ds.Areas[2]
	cfg := bidder.DefaultConfig()
	const n, lambda = 40, 4
	mkBids := func(sus []bidder.SU, rng *rand.Rand) [][]uint64 {
		bids := make([][]uint64, len(sus))
		for i, su := range sus {
			bids[i] = bidder.BidVector(su, area, cfg, rng)
		}
		return bids
	}
	run := func(b *testing.B, place func(rng *rand.Rand) []bidder.SU) {
		var satisfaction float64
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			sus := place(rng)
			pts := make([]lppa.Point, len(sus))
			for j, su := range sus {
				pts[j] = su.Point()
			}
			out, err := round.RunPlainBaseline(pts, mkBids(sus, rng), lambda, rng)
			if err != nil {
				b.Fatal(err)
			}
			satisfaction = out.Satisfaction()
		}
		b.ReportMetric(100*satisfaction, "satisfaction-%")
	}
	b.Run("uniform", func(b *testing.B) {
		run(b, func(rng *rand.Rand) []bidder.SU { return bidder.Place(area.Grid, n, cfg, rng) })
	})
	b.Run("clustered", func(b *testing.B) {
		run(b, func(rng *rand.Rand) []bidder.SU {
			return bidder.PlaceClustered(area.Grid, n, 3, 1.5, cfg, rng)
		})
	})
}

// --- Interned-set benchmarks (PR 2) -------------------------------------

// BenchmarkInternedIntersect times the interned fast path — the counted
// intersection every auctioneer graph and rank-memo build runs — at the
// set shapes the protocol produces (family ≈ w+1 IDs vs padded cover =
// 2w−2 IDs) plus the skewed shape that triggers galloping. The mask
// package's TestIntersectsCountedZeroAlloc (`make alloc-guard`) pins the
// same cases at 0 allocations with every call tallied.
func BenchmarkInternedIntersect(b *testing.B) {
	m, err := mask.NewMasker(make(mask.Key, 32))
	if err != nil {
		b.Fatal(err)
	}
	mkSet := func(dict *mask.Dict, lo, n uint64) mask.IntSet {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = lo + uint64(i)
		}
		return dict.InternSet(m.MaskSet(vs))
	}
	dict := mask.NewDict()
	family := mkSet(dict, 0, 11)       // w+1 at w=10
	coverHit := mkSet(dict, 5, 18)     // 2w−2, overlaps family
	coverMiss := mkSet(dict, 1000, 18) // disjoint: Bloom/merge reject
	large := mkSet(dict, 2000, 400)    // gallop fixture
	probe := mkSet(dict, 2399, 3)      // tiny, hits large's last ID
	cases := []struct {
		name string
		a, b mask.IntSet
	}{
		{"family-vs-cover-hit", family, coverHit},
		{"family-vs-cover-miss", family, coverMiss},
		{"gallop-skewed", probe, large},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var st mask.IntersectStats
			for i := 0; i < b.N; i++ {
				tc.a.IntersectsCounted(tc.b, &st)
			}
		})
	}
}

// engineGraph builds the auctioneer's conflict graph — the one execution
// path — over location submissions alone; the placeholder bids are never
// read by the graph build.
func engineGraph(b *testing.B, p core.Params, locs []*core.LocationSubmission) *conflict.Graph {
	bids := make([]*core.BidSubmission, len(locs))
	for i := range bids {
		bids[i] = &core.BidSubmission{Channels: make([]core.ChannelBid, p.Channels)}
	}
	auc, err := core.NewAuctioneer(p, locs, bids)
	if err != nil {
		b.Fatal(err)
	}
	return auc.ConflictGraph()
}

// conflictSubsN300 builds the N=300 masked population both conflict-graph
// benchmarks share.
func conflictSubsN300(b *testing.B) (core.Params, []*core.LocationSubmission) {
	b.Helper()
	p := core.Params{Channels: 1, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("graph300"), 1, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	const n = 300
	pts := make([]geo.Point, n)
	for i := range pts {
		pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
	}
	subs, err := core.NewLocationSubmissions(p, ring, pts, 0)
	if err != nil {
		b.Fatal(err)
	}
	return p, subs
}

// BenchmarkConflictGraphN300 is the conflict-graph build at N=300, single
// worker: the test oracle (all pairs over plain mask.Set) against the
// auctioneer's engine (interning, location grouping and the candidate
// index, ingest cost included).
func BenchmarkConflictGraphN300(b *testing.B) {
	p, subs := conflictSubsN300(b)
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.BuildConflictGraph(subs)
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			engineGraph(b, p, subs)
		}
	})
}

// rankMemoRoundN300 builds the N=300, k=4 bid matrix the rank-memo
// representation benchmarks share.
func rankMemoRoundN300(b *testing.B) (core.Params, []*core.LocationSubmission, []*core.BidSubmission) {
	b.Helper()
	p := core.Params{Channels: 4, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("memo300"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 300
	pts := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range pts {
		pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			bids[i][r] = uint64(rng.Intn(101))
		}
	}
	locs, err := core.NewLocationSubmissions(p, ring, pts, 0)
	if err != nil {
		b.Fatal(err)
	}
	subs := make([]*core.BidSubmission, n)
	for i := range subs {
		enc, err := core.NewBidEncoder(p, ring, nil, rng)
		if err != nil {
			b.Fatal(err)
		}
		if subs[i], err = enc.Encode(bids[i], rng); err != nil {
			b.Fatal(err)
		}
	}
	return p, locs, subs
}

// BenchmarkRankMemoN300 is the rank-memo build at N=300 over all k
// columns: the test oracle (a stable sort of every bidder under CompareGE
// on plain mask.Set bids, O(n log n) masked comparisons per column)
// against the engine (a fresh auctioneer's Rankings: interned columns,
// bid-class value ranks, one sort by rank).
func BenchmarkRankMemoN300(b *testing.B) {
	p, locs, subs := rankMemoRoundN300(b)
	b.Run("oracle", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for r := 0; r < p.Channels; r++ {
				order := make([]int, len(subs))
				for x := range order {
					order[x] = x
				}
				sort.SliceStable(order, func(x, y int) bool {
					i, j := &subs[order[x]].Channels[r], &subs[order[y]].Channels[r]
					return core.CompareGE(i, j) && !core.CompareGE(j, i)
				})
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			auc, err := core.NewAuctioneer(p, locs, subs)
			if err != nil {
				b.Fatal(err)
			}
			auc.Rankings()
		}
	})
}

// BenchmarkAuctioneerSmall prices the auctioneer's fixed cost on the
// smallest rounds (the networked two-bidder round): a fresh NewAuctioneer
// → ConflictGraph → Allocate → ChargeRequests per iteration, with the
// submissions encoded once outside the loop. Run with -benchmem: at n=2
// the per-round allocations are most of the cost.
func BenchmarkAuctioneerSmall(b *testing.B) {
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("auctioneer-small"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 16} {
		rng := rand.New(rand.NewSource(int64(n)))
		pts := make([]geo.Point, n)
		subs := make([]*core.BidSubmission, n)
		for i := range pts {
			pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
			bids := make([]uint64, p.Channels)
			for r := range bids {
				bids[r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
			enc, err := core.NewBidEncoder(p, ring, nil, rng)
			if err != nil {
				b.Fatal(err)
			}
			if subs[i], err = enc.Encode(bids, rng); err != nil {
				b.Fatal(err)
			}
		}
		locs, err := core.NewLocationSubmissions(p, ring, pts, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			alloc := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				auc, err := core.NewAuctioneer(p, locs, subs)
				if err != nil {
					b.Fatal(err)
				}
				auc.ConflictGraph()
				as, err := auc.Allocate(alloc)
				if err != nil {
					b.Fatal(err)
				}
				auc.ChargeRequests(as)
			}
		})
	}
}

// --- Candidate-generation benchmarks -------------------------------------

// BenchmarkConflictGraphIndexed is the conflict-graph build at N=3000
// under the two density regimes of DESIGN.md §5f: the all-pairs oracle
// over plain mask.Set against the engine (distinct-location groups and an
// inverted index over them). Sparse-rural (uniform over a 1000×1000
// domain) is where the index wins — short posting lists collapse the
// candidate set far below n². Dense-urban (three tight hotspots on a
// 100×100 domain) is where grouping wins: a few hundred distinct
// locations carry ~1.35 M edges.
func BenchmarkConflictGraphIndexed(b *testing.B) {
	const n = 3000
	regimes := []struct {
		mix  dataset.DensityMix
		grid geo.Grid
	}{
		{dataset.UrbanMix(), geo.Grid{Rows: 100, Cols: 100, SideMeters: 75_000}},
		{dataset.RuralMix(), geo.Grid{Rows: 1000, Cols: 1000, SideMeters: 75_000}},
	}
	for _, re := range regimes {
		p := core.Params{Channels: 1, Lambda: re.mix.Lambda,
			MaxX: uint64(re.grid.Cols - 1), MaxY: uint64(re.grid.Rows - 1), BMax: 100}
		ring, err := mask.DeriveKeyRing([]byte("ixbench-"+re.mix.Name), 1, 5, 8)
		if err != nil {
			b.Fatal(err)
		}
		pts := re.mix.Points(re.grid, n, rand.New(rand.NewSource(3)))
		subs, err := core.NewLocationSubmissions(p, ring, pts, 0)
		if err != nil {
			b.Fatal(err)
		}
		var name string
		switch re.mix.Name {
		case "urban":
			name = "dense-urban"
		default:
			name = "sparse-rural"
		}
		b.Run(name+"/oracle", func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				edges = core.BuildConflictGraph(subs).Edges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
		b.Run(name+"/engine", func(b *testing.B) {
			var edges int
			for i := 0; i < b.N; i++ {
				edges = engineGraph(b, p, subs).Edges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

// BenchmarkIndexCursorRow times the steady-state candidate scan once the
// cursor's scratch buffers have grown to the hottest row; the mask
// package's TestIndexCursorRowZeroAlloc (`make alloc-guard`) pins that Row
// then does not allocate.
func BenchmarkIndexCursorRow(b *testing.B) {
	m, err := mask.NewMasker(make(mask.Key, 32))
	if err != nil {
		b.Fatal(err)
	}
	dict := mask.NewDict()
	mkSet := func(lo, cnt uint64) mask.IntSet {
		vs := make([]uint64, cnt)
		for i := range vs {
			vs[i] = lo + uint64(i)
		}
		return dict.InternSet(m.MaskSet(vs))
	}
	const n = 256
	ix := mask.NewIndex(n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		lo := uint64(rng.Intn(64))
		ix.Add(mkSet(lo, 11), mkSet(lo, 18))
	}
	cur := ix.Cursor()
	for i := 0; i < n; i++ {
		cur.Row(i) // grow the scratch buffers to steady state
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur.Row(i % n)
	}
}

// --- Density-regime round benchmarks --------------------------------------

// densityRoundFixture builds the (params, ring, points, bids) tuple for
// one density regime of DESIGN.md §5g at population n.
func densityRoundFixture(b *testing.B, mix dataset.DensityMix, grid geo.Grid, n int) (core.Params, *mask.KeyRing, []geo.Point, [][]uint64) {
	b.Helper()
	p := core.Params{Channels: 2, Lambda: mix.Lambda,
		MaxX: uint64(grid.Cols - 1), MaxY: uint64(grid.Rows - 1), BMax: 15}
	ring, err := mask.DeriveKeyRing([]byte("densitybench-"+mix.Name), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	pts := mix.Points(grid, n, rng)
	bids := make([][]uint64, n)
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			bids[i][r] = uint64(rng.Intn(int(p.BMax) + 1))
		}
	}
	return p, ring, pts, bids
}

// BenchmarkRoundDensity is the full private round (encode + conflict
// graph + rank memos + allocation + charging) end to end under the density
// regimes of DESIGN.md §5g. Channels and the bid ledger are kept small
// (k=2, BMax=15 → 4-digit bid columns) so submission encoding does not
// swamp the auctioneer's phases.
func BenchmarkRoundDensity(b *testing.B) {
	regimes := []struct {
		mix  dataset.DensityMix
		grid geo.Grid
		pops []int
	}{
		// Urban stays at N=3000: every bidder conflicts with a hotspot-full
		// of others, so the edge set itself is quadratic and N=10000 would
		// measure edge handling, not candidate pruning.
		{dataset.UrbanMix(), geo.Grid{Rows: 100, Cols: 100, SideMeters: 75_000}, []int{3000}},
		{dataset.RuralMix(), geo.Grid{Rows: 1000, Cols: 1000, SideMeters: 75_000}, []int{3000, 10000}},
		{dataset.MixedMix(), geo.Grid{Rows: 300, Cols: 300, SideMeters: 75_000}, []int{3000, 10000}},
	}
	for _, re := range regimes {
		for _, n := range re.pops {
			p, ring, pts, bids := densityRoundFixture(b, re.mix, re.grid, n)
			b.Run(fmt.Sprintf("%s/N=%d", re.mix.Name, n), func(b *testing.B) {
				var awards int
				for i := 0; i < b.N; i++ {
					res, err := round.Run(p, ring,
						round.Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1},
							Rng: rand.New(rand.NewSource(int64(i)))})
					if err != nil {
						b.Fatal(err)
					}
					awards = len(res.Outcome.Assignments)
				}
				b.ReportMetric(float64(awards), "awards")
			})
		}
	}
}

// BenchmarkRoundTraceOverhead prices the tracing subsystem against a full
// private round. "off" is the untraced baseline; "disabled" passes the
// zero Telemetry — the production default, which must cost exactly what
// "off" costs (same ns/op ballpark, identical allocs/op; `make
// trace-guard` enforces the allocation half); "on" runs a live tracer
// plus flight recorder, the bound on what turning observability on buys
// you into.
func BenchmarkRoundTraceOverhead(b *testing.B) {
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("trace-bench"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	const n = 60
	pts := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range pts {
		pts[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			bids[i][r] = uint64(rng.Intn(101))
		}
	}
	run := func(b *testing.B, opts []lppa.RunOption) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			in := lppa.RoundInput{Points: pts, Bids: bids,
				Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(int64(i)))}
			if _, err := lppa.Run(p, ring, in, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) {
		run(b, nil)
	})
	b.Run("disabled", func(b *testing.B) {
		run(b, []lppa.RunOption{lppa.WithTelemetry(lppa.Telemetry{})})
	})
	b.Run("on", func(b *testing.B) {
		tracer := lppa.NewTracer("bench")
		fr := lppa.NewFlightRecorder(b.TempDir(), 4, 0)
		run(b, []lppa.RunOption{lppa.WithTelemetry(lppa.Telemetry{Tracer: tracer, Flight: fr})})
		// Keep the buffer from growing bias into later iterations' numbers.
		b.StopTimer()
		tracer.Take()
	})
}

// BenchmarkEpochService prices the epochal service pipeline end to end:
// each iteration streams one full population through the admission gate
// (explicit clock, so the admit/reject split is deterministic), seals the
// epoch, and lets the runner allocate it while the next iteration's
// intake proceeds — the same overlap the long-lived service exhibits.
// The rate limit is sized to shed part of every population, so the
// admitted/rejected metrics exercise the gate rather than bypassing it,
// and both ledgers settle through the batched accountant. Headline
// metrics: epochs/s, admitted and rejected per epoch, and the accounting
// flush traffic (db calls + key writes per epoch).
func BenchmarkEpochService(b *testing.B) {
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("epoch-bench"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	const n = 200
	rng := rand.New(rand.NewSource(61))
	subs := make([]epoch.Submission, n)
	for i := range subs {
		subs[i] = epoch.Submission{
			Bidder: i,
			Point:  geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))},
			Bids:   make([]uint64, p.Channels),
		}
		for r := range subs[i].Bids {
			if rng.Intn(3) > 0 {
				subs[i].Bids[r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
	}
	variants := []struct {
		name string
		opts []round.Option
	}{
		{"serial", nil},
		{"workers4", []round.Option{round.WithWorkers(4)}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			billingStore, quotaStore := epoch.NewMemStore(), epoch.NewMemStore()
			billing, err := epoch.NewAccountant("billing", billingStore, p.BMax*4, nil)
			if err != nil {
				b.Fatal(err)
			}
			quota, err := epoch.NewAccountant("quota", quotaStore, 64, nil)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := epoch.New(epoch.Config{
				Params: p, Ring: ring, Seed: 7,
				Policy: core.DisguisePolicy{P0: 1},
				// 100 tokens/s against 200 submissions/epoch: the gate sheds
				// part of every population instead of idling.
				Admission:    epoch.AdmissionConfig{Rate: 100, Burst: 150},
				Billing:      billing,
				Quota:        quota,
				RoundOptions: v.opts,
			})
			if err != nil {
				b.Fatal(err)
			}
			drained := make(chan struct{})
			go func() {
				defer close(drained)
				for res := range svc.Results() {
					if res.Err != nil {
						b.Error(res.Err)
					}
				}
			}()
			var admitted, rejected int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// One second of simulated wall clock per epoch refills the
				// bucket by Rate; the split is identical on every run.
				now := float64(i)
				for _, sub := range subs {
					switch err := svc.SubmitAt(sub, now); err.(type) {
					case nil:
						admitted++
					case *epoch.ErrRateLimited:
						rejected++
					default:
						b.Fatal(err)
					}
				}
				if err := svc.Seal(); err != nil {
					b.Fatal(err)
				}
			}
			// Close drains the queued epochs through the runner, so the
			// timed region covers allocation, not just intake.
			if err := svc.Close(); err != nil {
				b.Fatal(err)
			}
			<-drained
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "epochs/s")
			b.ReportMetric(float64(admitted)/float64(b.N), "admitted/epoch")
			b.ReportMetric(float64(rejected)/float64(b.N), "rejected/epoch")
			calls := billingStore.Calls() + quotaStore.Calls()
			writes := billingStore.Writes() + quotaStore.Writes()
			b.ReportMetric(float64(calls)/float64(b.N), "dbCalls/epoch")
			b.ReportMetric(float64(writes)/float64(b.N), "dbWrites/epoch")
		})
	}
}

// BenchmarkBatchedAccounting backs the PR-8 acceptance criterion with
// numbers: at N=10000 accounting ops, the thresholded accountant must
// issue at least 10× fewer simulated datastore calls than the
// per-submission baseline (threshold 1 — every delta is its own round
// trip) while persisting identical exact totals.
// TestBatchedAccountingWriteReduction asserts the same bound; this
// benchmark publishes the measured traffic into BENCH_PR8.json.
func BenchmarkBatchedAccounting(b *testing.B) {
	const nOps = 10_000
	const keys = 500 // distinct bidders the deltas spread across
	modes := []struct {
		name      string
		threshold uint64
	}{
		{"per-submission", 1},
		{"batched", 4000},
	}
	for _, m := range modes {
		b.Run(m.name, func(b *testing.B) {
			var calls, writes uint64
			for i := 0; i < b.N; i++ {
				store := epoch.NewMemStore()
				acct, err := epoch.NewAccountant("bench", store, m.threshold, nil)
				if err != nil {
					b.Fatal(err)
				}
				rng := rand.New(rand.NewSource(17))
				for op := 0; op < nOps; op++ {
					if err := acct.Add(rng.Intn(keys), uint64(rng.Intn(100))+1); err != nil {
						b.Fatal(err)
					}
				}
				if err := acct.Flush(); err != nil {
					b.Fatal(err)
				}
				calls, writes = store.Calls(), store.Writes()
			}
			b.ReportMetric(float64(calls), "dbCalls")
			b.ReportMetric(float64(writes), "dbWrites")
			b.ReportMetric(float64(nOps)/float64(calls), "ops/dbCall")
		})
	}
}

// --- Bidder-side encoding (PR 12) ------------------------------------------

// encodeFixture is the round-urban workload's bidder side: N=3000
// dataset.UrbanMix bidders on a 100×100 grid, 8 channels, rd=5, cr=8,
// BMax 100, a quarter of the bids zero, disguise P0=0.6 with decay 0.95,
// and one encoding seed per bidder.
func encodeFixture(b *testing.B) (core.Params, *mask.KeyRing, *core.DisguiseSampler, []geo.Point, [][]uint64, []int64) {
	b.Helper()
	mix, grid := dataset.UrbanMix(), geo.Grid{Rows: 100, Cols: 100, SideMeters: 75_000}
	p := core.Params{Channels: 8, Lambda: mix.Lambda, MaxX: uint64(grid.Cols - 1), MaxY: uint64(grid.Rows - 1), BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("encode-bench"), p.Channels, 5, 8)
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := core.NewDisguiseSampler(core.DisguisePolicy{P0: 0.6, Decay: 0.95}, p.BMax)
	if err != nil {
		b.Fatal(err)
	}
	const n = 3000
	rng := rand.New(rand.NewSource(12))
	pts := mix.Points(grid, n, rng)
	bids := make([][]uint64, n)
	seeds := make([]int64, n)
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(4) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
		seeds[i] = rng.Int63()
	}
	return p, ring, sampler, pts, bids, seeds
}

// BenchmarkEncodeSubmissions attributes the bidder-side cost of a round:
// every bidder's masked location (core.NewLocationSubmissions) and masked
// bids, serially, each bidder on its own seeded rng as in round.Run.
// "reused" is the round's path — one bid encoder rebound from bidder to
// bidder, so each channel's digest table fills once. "oneshot" builds a
// fresh encoder per bidder, as a networked BidderClient does; it pays an
// HMAC per prefix, eight key schedules and an AES-GCM set-up per bidder.
func BenchmarkEncodeSubmissions(b *testing.B) {
	p, ring, sampler, pts, bids, seeds := encodeFixture(b)
	for _, mode := range []string{"reused", "oneshot"} {
		b.Run(mode, func(b *testing.B) {
			for it := 0; it < b.N; it++ {
				if _, err := core.NewLocationSubmissions(p, ring, pts, 1); err != nil {
					b.Fatal(err)
				}
				var enc *core.BidEncoder
				for i := range bids {
					rng := rand.New(rand.NewSource(seeds[i]))
					if enc != nil && mode == "reused" {
						enc.Rebind(sampler, rng)
					} else {
						var err error
						if enc, err = core.NewBidEncoder(p, ring, sampler, rng); err != nil {
							b.Fatal(err)
						}
					}
					if _, err := enc.Encode(bids[i], rng); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
