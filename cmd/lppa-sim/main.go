// Command lppa-sim reproduces the paper's evaluation (section VI): it
// generates (or loads) the synthetic Los Angeles dataset and runs the
// experiment behind each figure, printing the corresponding table.
//
// Usage:
//
//	lppa-sim -experiment all
//	lppa-sim -experiment fig4a -victims 100
//	lppa-sim -experiment fig5ef -bidders 100,200,300
//	lppa-sim -experiment theorems
//	lppa-sim -experiment coverage
//
// Experiments: coverage, fig4a (covers 4b too), fig4c, fig5ad, fig5ef,
// multiround (§V.C.3), basicleak (§IV.C.1), pricing (second-price future
// work), theorems, round (one instrumented private round), all. The -cache
// flag persists the generated dataset so repeat runs start instantly;
// -format csv emits machine-readable tables; -tiny and -quick shrink
// everything for smoke runs. -metrics-out dumps the observability
// registry's JSON snapshot for the instrumented experiments; -trace-out
// records them as a Chrome trace_event file (view at ui.perfetto.dev);
// -audit-out writes the round experiment's privacy-leakage report;
// -flight-dir auto-dumps failed or degraded round traces; -pprof-addr
// serves net/http/pprof.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"lppa/internal/cli"
	"lppa/internal/dataset"
	"lppa/internal/geo"
	"lppa/internal/obs"
	"lppa/internal/obs/audit"
	"lppa/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lppa-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lppa-sim", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "coverage|fig4a|fig4c|fig5ad|fig5ef|multiround|basicleak|pricing|theorems|round|all")
		seed       = fs.Int64("seed", 42, "experiment seed (dataset + auctions)")
		cache      = fs.String("cache", "", "dataset cache path (optional)")
		victims    = fs.Int("victims", 60, "victims per attack configuration")
		bidders    = fs.String("bidders", "100,200,300", "population sizes for fig5ef")
		channels   = fs.Int("channels", dataset.NumChannels, "channel count for fig5 experiments")
		n          = fs.Int("n", 100, "population size for fig5ad and theorem 4")
		quick      = fs.Bool("quick", false, "smaller sweeps for a fast smoke run")
		tiny       = fs.Bool("tiny", false, "20x20-cell, 12-channel dataset for CI smoke runs")
		trials     = fs.Int("trials", 3, "independent trials per fig5ef cell (mean ± 95% CI)")
		format     = fs.String("format", "text", "table output: text|csv")
		metricsOut = fs.String("metrics-out", "", "write a JSON metrics snapshot of the instrumented experiments (round, fig5ad, fig5ef) to this file; - for stdout")
		traceOut   = fs.String("trace-out", "", "write a Chrome trace_event JSON of the instrumented experiments (round, fig5ad, fig5ef) to this file; view at ui.perfetto.dev")
		auditOut   = fs.String("audit-out", "", "write the round experiment's privacy-leakage audit (per-bidder anonymity sets) as JSON to this file")
		flightDir  = fs.String("flight-dir", "", "flight-recorder directory: failed or degraded instrumented rounds auto-dump their traces here")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address for live profiling")
	)
	// Round-shaping flags (-workers, -quorum, -density) come from the
	// shared cli block lppa-net registers too; the networked-only ones
	// (-straggler, -retries, -chaos) are lppa-net's alone.
	var rf cli.RoundFlags
	rf.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Reject typo'd values (negative -workers, unknown -density) and
	// resolve -workers 0 to one per CPU.
	if err := rf.Validate(); err != nil {
		return err
	}
	mix, err := rf.Mix()
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "workers: %d (GOMAXPROCS %d)\n", rf.Workers, runtime.GOMAXPROCS(0))
	switch *format {
	case "text":
		render = func(t *sim.Table) error { return t.Render(os.Stdout) }
	case "csv":
		render = func(t *sim.Table) error { return t.RenderCSV(os.Stdout) }
	default:
		return fmt.Errorf("unknown format %q", *format)
	}

	needDataset := *experiment != "theorems"
	var ds *dataset.Dataset
	if needDataset {
		cfg := dataset.DefaultConfig()
		if *tiny {
			cfg.Grid = geo.Grid{Rows: 20, Cols: 20, SideMeters: 75_000}
			cfg.Channels = 12
		}
		var err error
		ds, err = dataset.LoadOrGenerate(*cache, cfg, *seed)
		if err != nil {
			return err
		}
		g := ds.Areas[0].Grid
		fmt.Fprintf(os.Stderr, "dataset: %d channels x %d areas x %dx%d cells (seed %d)\n",
			ds.Areas[0].NumChannels(), len(ds.Areas), g.Rows, g.Cols, ds.Seed)
	}

	if err := cli.ServePprof(*pprofAddr); err != nil {
		return err
	}
	sinks := obsSinks{auditOut: *auditOut}
	if *metricsOut != "" || *auditOut != "" {
		sinks.tel.Metrics = obs.NewRegistry()
	}
	if *traceOut != "" || *flightDir != "" {
		sinks.tel.Tracer = obs.NewTracer("sim")
	}
	if *flightDir != "" {
		sinks.tel.Flight = obs.NewFlightRecorder(*flightDir, 8, 0)
	}

	runOne := func(name string) error {
		switch name {
		case "coverage":
			return runCoverage(ds)
		case "fig4a", "fig4b", "fig4ab":
			return runFig4AB(ds, *victims, *seed, *quick)
		case "fig4c":
			return runFig4C(ds, *victims, *seed)
		case "fig5ad":
			return runFig5AD(ds, *n, *channels, *seed, *quick, rf, sinks)
		case "fig5ef":
			pops, err := parseInts(*bidders)
			if err != nil {
				return err
			}
			return runFig5EF(ds, pops, *channels, *seed, *trials, *quick, rf, sinks)
		case "round":
			return runRound(ds, *n, *channels, *seed, mix, rf, sinks)
		case "multiround":
			return runMultiRound(ds, *seed, *quick)
		case "basicleak":
			return runBasicLeak(ds, *seed, *quick)
		case "pricing":
			return runPricing(ds, *seed, *quick)
		case "theorems":
			return runTheorems(ds, *seed, *quick)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	if *experiment == "all" {
		for _, name := range []string{"coverage", "fig4a", "fig4c", "fig5ad", "fig5ef", "multiround", "basicleak", "pricing", "theorems"} {
			if err := runOne(name); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
	} else if err := runOne(*experiment); err != nil {
		return err
	}
	if *metricsOut != "" {
		if err := writeMetrics(sinks.tel.Metrics, *metricsOut); err != nil {
			return err
		}
	}
	return writeTrace(sinks.tel.Tracer, *traceOut)
}

// obsSinks carries the optional observability outputs into the
// instrumented experiments.
type obsSinks struct {
	tel      obs.Telemetry
	auditOut string
}

// writeTrace dumps everything the tracer buffered as one Chrome
// trace_event file, loadable in ui.perfetto.dev or chrome://tracing.
func writeTrace(tracer *obs.Tracer, path string) error {
	if tracer == nil || path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := obs.WriteChromeTrace(f, tracer.Snapshot()); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trace written to %s (open in ui.perfetto.dev)\n", path)
	return nil
}

// writeMetrics dumps the registry snapshot collected by the instrumented
// experiments to path (stdout when "-"). No-op when metrics were disabled.
func writeMetrics(reg *obs.Registry, path string) error {
	if reg == nil {
		return nil
	}
	if path == "-" {
		return reg.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	if err := reg.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("metrics snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "metrics snapshot written to %s\n", path)
	return nil
}

// runRound executes one instrumented private round (Area 3, population n)
// and prints its headline numbers; with -metrics-out the full per-phase and
// per-layer profile lands in the snapshot, -trace-out records the phase
// span tree, and -audit-out reports what the round's transcript leaked.
func runRound(ds *dataset.Dataset, n, channels int, seed int64, mix *dataset.DensityMix, rf cli.RoundFlags, sinks obsSinks) error {
	cfg := sim.DefaultFig5Config()
	cfg.Bidders = n
	cfg.Channels = channels
	cfg.Density = mix
	applyRoundFlags(&cfg, rf, sinks)
	placement := "uniform"
	if mix != nil {
		placement = mix.Name
		cfg.Lambda = mix.Lambda
	}
	res, err := sim.MetricsRound(ds.Areas[2], cfg, seed)
	if err != nil {
		return err
	}
	fmt.Printf("## Instrumented private round (Area 3, N=%d, k=%d, density=%s)\n\n",
		n, min(channels, ds.Areas[2].NumChannels()), placement)
	fmt.Printf("awards: %d, revenue: %d, satisfaction: %.3f, voided: %d, submission bytes: %d\n",
		len(res.Outcome.Assignments), res.Outcome.Revenue, res.Outcome.Satisfaction(), res.Voided, res.SubmissionBytes)
	if sinks.auditOut == "" {
		return nil
	}
	rep, err := audit.Round(res, audit.Options{Area: ds.Areas[2], Metrics: sinks.tel.Metrics})
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	if err := rep.WriteJSON(sinks.auditOut); err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	fmt.Fprint(os.Stderr, rep.Summary())
	fmt.Fprintf(os.Stderr, "audit written to %s\n", sinks.auditOut)
	return nil
}

// applyRoundFlags folds the shared round-shaping flags and observability
// sinks into one experiment config.
func applyRoundFlags(cfg *sim.Fig5Config, rf cli.RoundFlags, sinks obsSinks) {
	cfg.Workers = rf.Workers
	cfg.Quorum = rf.Quorum
	cfg.Telemetry = sinks.tel
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// render writes experiment tables in the selected format.
var render = func(t *sim.Table) error { return t.Render(os.Stdout) }

func parseInts(csv string) ([]int, error) {
	parts := strings.Split(csv, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("parse %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func runCoverage(ds *dataset.Dataset) error {
	sum, err := sim.Coverage(ds.Areas[0], 0, 50)
	if err != nil {
		return err
	}
	fmt.Printf("## Fig.1(b): coverage of channel %d in %s\n\n", sum.Channel, sum.Area)
	fmt.Printf("towers: %d, available fraction: %.1f%%\n\n%s\n",
		sum.Towers, 100*sum.AvailableFrac, sum.ASCIIMap)
	return nil
}

func runFig4AB(ds *dataset.Dataset, victims int, seed int64, quick bool) error {
	cfg := sim.DefaultFig4Config()
	cfg.Victims = victims
	if quick {
		cfg.Victims = 15
		cfg.ChannelCounts = []int{40, 129}
		cfg.KeepFractions = []float64{1, 0.5}
	}
	points, err := sim.Fig4AB(ds.Areas[3], cfg, seed)
	if err != nil {
		return err
	}
	return render(sim.Fig4ABTable(points))
}

func runFig4C(ds *dataset.Dataset, victims int, seed int64) error {
	points, err := sim.Fig4C(ds, victims, dataset.NumChannels, 250, seed)
	if err != nil {
		return err
	}
	return render(sim.Fig4CTable(points))
}

func runFig5AD(ds *dataset.Dataset, n, channels int, seed int64, quick bool, rf cli.RoundFlags, sinks obsSinks) error {
	cfg := sim.DefaultFig5Config()
	cfg.Bidders = n
	cfg.Channels = channels
	applyRoundFlags(&cfg, rf, sinks)
	if quick {
		cfg.Bidders = 25
		cfg.Channels = 30
		cfg.ZeroReplace = []float64{0.2, 0.6, 1.0}
		cfg.KeepFractions = []float64{0.25, 0.5}
	}
	points, baseline, err := sim.Fig5AD(ds.Areas[2], cfg, seed)
	if err != nil {
		return err
	}
	return render(sim.Fig5ADTable(points, baseline))
}

func runFig5EF(ds *dataset.Dataset, pops []int, channels int, seed int64, trials int, quick bool, rf cli.RoundFlags, sinks obsSinks) error {
	cfg := sim.DefaultFig5Config()
	cfg.Channels = channels
	cfg.Trials = trials
	applyRoundFlags(&cfg, rf, sinks)
	if quick {
		cfg.Trials = 1
		cfg.Channels = 30
		cfg.ZeroReplace = []float64{0.2, 0.6, 1.0}
		pops = []int{30}
	}
	points, err := sim.Fig5EF(ds.Areas[2], cfg, pops, seed)
	if err != nil {
		return err
	}
	return render(sim.Fig5EFTable(points))
}

func runMultiRound(ds *dataset.Dataset, seed int64, quick bool) error {
	cfg := sim.DefaultMultiRoundConfig()
	if quick {
		cfg.Bidders = 15
		cfg.Channels = 20
		cfg.Rounds = 5
	}
	points, err := sim.MultiRound(ds.Areas[2], cfg, seed)
	if err != nil {
		return err
	}
	return render(sim.MultiRoundTable(points))
}

func runBasicLeak(ds *dataset.Dataset, seed int64, quick bool) error {
	cfg := sim.DefaultBasicLeakConfig()
	if quick {
		cfg.Victims = 10
		cfg.Channels = 12
	}
	res, err := sim.BasicLeak(ds.Areas[3], cfg, seed)
	if err != nil {
		return err
	}
	return render(sim.BasicLeakTable(res))
}

func runPricing(ds *dataset.Dataset, seed int64, quick bool) error {
	cfg := sim.DefaultPricingConfig()
	if quick {
		cfg.Bidders = 12
		cfg.Channels = 10
		cfg.Trials = 1
	}
	points, err := sim.Pricing(ds.Areas[2], cfg, seed)
	if err != nil {
		return err
	}
	return render(sim.PricingTable(points))
}

func runTheorems(ds *dataset.Dataset, seed int64, quick bool) error {
	cfg := sim.DefaultTheoremConfig()
	if quick {
		cfg.Trials = 20_000
	}
	tbl, err := sim.TheoremsTable(cfg, seed)
	if err != nil {
		return err
	}
	if err := render(tbl); err != nil {
		return err
	}
	if ds != nil {
		t4, err := sim.Theorem4Table(ds.Areas[2], min(20, ds.Areas[2].NumChannels()), 40, seed)
		if err != nil {
			return err
		}
		return render(t4)
	}
	return nil
}
