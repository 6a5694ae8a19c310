// Command lppa-net runs the LPPA parties over real TCP connections.
//
// Demo mode (default) spawns the TTP, the auctioneer, and N bidders inside
// one process, wired over loopback sockets, and prints the round outcome:
//
//	lppa-net -bidders 12 -channels 8
//
// Role mode runs a single party, for multi-process or multi-machine
// deployments:
//
//	lppa-net -role ttp        -listen :7001 -channels 8
//	lppa-net -role auctioneer -listen :7002 -ttp host:7001 -bidders 12 -channels 8
//	lppa-net -role bidder     -id 3 -ttp host:7001 -auctioneer host:7002 -channels 8 \
//	         -x 17 -y 40 -bids 10,0,30,5,0,0,80,2
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"lppa"
	"lppa/internal/cli"
	"lppa/internal/epoch"
	"lppa/internal/obs"
	"lppa/internal/obs/ops"
	"lppa/internal/transport"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lppa-net:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lppa-net", flag.ContinueOnError)
	var (
		role     = fs.String("role", "demo", "demo|ttp|auctioneer|bidder")
		listen   = fs.String("listen", "127.0.0.1:0", "listen address (ttp/auctioneer)")
		ttpAddr  = fs.String("ttp", "", "TTP address (auctioneer/bidder)")
		aucAddr  = fs.String("auctioneer", "", "auctioneer address (bidder)")
		bidders  = fs.Int("bidders", 8, "number of bidders in the round")
		channels = fs.Int("channels", 8, "auctioned channels k")
		bmax     = fs.Uint64("bmax", 100, "bid upper bound")
		lambda   = fs.Uint64("lambda", 2, "interference half-range (cells)")
		maxXY    = fs.Uint64("domain", 99, "coordinate domain upper bound")
		id       = fs.Int("id", 0, "bidder id (bidder role)")
		x        = fs.Uint64("x", 0, "bidder x coordinate")
		y        = fs.Uint64("y", 0, "bidder y coordinate")
		bidsCSV  = fs.String("bids", "", "bidder's comma-separated bids, one per channel")
		p0       = fs.Float64("p0", 0.7, "probability a zero bid stays undisguised")
		pricing  = fs.String("pricing", "first", "charging rule: first|second")
		seedStr  = fs.String("secret", "lppa-net-demo-secret", "TTP key-derivation secret")
		seed     = fs.Int64("seed", 42, "randomness seed")
		metrics  = fs.String("metrics-addr", "", "serve metrics over HTTP on this address (GET /metrics = Prometheus text, other paths = JSON); keeps serving after the round until killed")

		cliTO        = fs.Duration("client-timeout", 0, "bidder per-exchange deadline, 0 = none (bidder/demo)")
		chaosBidders = fs.Int("chaos-bidders", 1, "how many bidders the demo chaos soak injects faults into")

		traceOut   = fs.String("trace-out", "", "write this party's round as a Chrome trace_event JSON when it finishes (demo/auctioneer/bidder); view at ui.perfetto.dev")
		flightDir  = fs.String("flight-dir", "", "flight-recorder directory: failed, degraded, or SLO-breaching rounds auto-dump their traces (demo/auctioneer)")
		flightKeep = fs.Int("flight-keep", 8, "round traces the flight recorder ring-buffers for dump context")
		flightSLO  = fs.Duration("flight-slo", 0, "round-duration SLO: healthy rounds slower than this still dump, 0 disables")
		pprofAddr  = fs.String("pprof-addr", "", "serve net/http/pprof on this address for live profiling")
	)
	// Round-shaping, epoch, and ops flags come from the shared cli blocks,
	// so lppa-net and lppa-sim agree on names and help strings. The epoch
	// service's rounds default to one worker.
	rf := cli.RoundFlags{Workers: 1}
	rf.Register(fs)
	rf.RegisterClient(fs)
	var ef cli.EpochFlags
	ef.Register(fs)
	var of cli.OpsFlags
	of.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := rf.Validate(); err != nil {
		return err
	}
	if err := ef.Validate(fs); err != nil {
		return err
	}
	if err := of.Validate(); err != nil {
		return err
	}

	params := lppa.Params{Channels: *channels, Lambda: *lambda, MaxX: *maxXY, MaxY: *maxXY, BMax: *bmax}
	if err := params.Validate(); err != nil {
		return err
	}
	var secondPrice bool
	switch *pricing {
	case "first":
	case "second":
		secondPrice = true
	default:
		return fmt.Errorf("unknown pricing rule %q", *pricing)
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, nil))
	reg, mux, err := serveMetrics(*metrics, log)
	if err != nil {
		return err
	}
	if err := cli.ServePprof(*pprofAddr); err != nil {
		return err
	}

	chaosCfg, err := rf.ChaosConfig()
	if err != nil {
		return err
	}

	// One tracer per process; in demo mode all three parties share it
	// (TTP spans under a "ttp" process name), so the exported trace shows
	// the full cross-party round.
	proc := *role
	if proc == "demo" {
		proc = "auctioneer"
	}
	tel := lppa.Telemetry{Metrics: reg}
	if *traceOut != "" || *flightDir != "" {
		tel.Tracer = obs.NewTracer(proc)
	}
	if *flightDir != "" {
		tel.Flight = obs.NewFlightRecorder(*flightDir, *flightKeep, *flightSLO)
	}

	// The ops plane rides the metrics mux: /healthz, /readyz, /statusz
	// next to /metrics. Epoch mode always gets one (cheap, and the smoke
	// test curls it); otherwise only when an ops flag asked for it.
	sampler := of.Sampler(proc, *seed)
	var plane *ops.Plane
	if (ef.Epochs > 0 && *role == "demo") || of.Enabled() {
		plane, err = of.Plane(reg, tel.Flight, sampler)
		if err != nil {
			return err
		}
		plane.Routes(mux)
	}

	switch *role {
	case "demo":
		cfg := demoConfig{
			bidders: *bidders, secret: *seedStr, p0: *p0, seed: *seed,
			secondPrice: secondPrice, flags: rf, clientTimeout: *cliTO,
			chaos: chaosCfg, chaosBidders: *chaosBidders,
			tel: tel, traceOut: *traceOut,
			plane: plane, sampler: sampler,
		}
		if ef.Epochs > 0 {
			return runEpochDemo(params, cfg, ef)
		}
		return runDemo(params, cfg, log)
	case "ttp":
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		cfg, err := transport.New(transport.WithLogger(log), transport.WithTelemetry(tel))
		if err != nil {
			return err
		}
		srv, err := transport.NewTTPServerWithConfig(params, []byte(*seedStr), 5, 8, ln, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("TTP listening on %s\n", srv.Addr())
		select {} // serve until killed
	case "auctioneer":
		if *ttpAddr == "" {
			return fmt.Errorf("auctioneer needs -ttp")
		}
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		cfg, err := auctioneerConfig(log, tel, secondPrice, rf, ef.RateLimit, plane)
		if err != nil {
			return err
		}
		srv, err := transport.NewAuctioneerServerWithConfig(params, *bidders, *ttpAddr, ln, *seed, cfg)
		if err != nil {
			return err
		}
		fmt.Printf("auctioneer listening on %s, waiting for %d bidders\n", srv.Addr(), *bidders)
		outcome, err := srv.Outcome()
		if err != nil {
			return fmt.Errorf("round failed: %w", err)
		}
		printOutcome(outcome)
		if err := srv.Close(); err != nil {
			return err
		}
		if err := writeTrace(tel.Tracer, *traceOut); err != nil {
			return err
		}
		lingerForScrape(reg)
		return nil
	case "bidder":
		if *ttpAddr == "" || *aucAddr == "" {
			return fmt.Errorf("bidder needs -ttp and -auctioneer")
		}
		bids, err := parseBids(*bidsCSV, *channels)
		if err != nil {
			return err
		}
		client := &lppa.BidderClient{ID: *id, Params: params, Policy: lppa.DisguisePolicy{P0: *p0, Decay: 0.95},
			Retry: rf.RetryPolicy(), Timeout: *cliTO, Tracer: tel.Tracer}
		res, err := client.Participate(*ttpAddr, *aucAddr, lppa.Point{X: *x, Y: *y}, bids,
			rand.New(rand.NewSource(*seed+int64(*id))))
		if err != nil {
			return err
		}
		printResult(*res)
		return writeTrace(tel.Tracer, *traceOut)
	default:
		return fmt.Errorf("unknown role %q", *role)
	}
}

// writeTrace dumps everything the tracer buffered as one Chrome
// trace_event file, loadable in ui.perfetto.dev or chrome://tracing.
func writeTrace(tracer *lppa.Tracer, path string) error {
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
	fmt.Printf("trace written to %s (open in ui.perfetto.dev)\n", path)
	return nil
}

// serveMetrics starts the optional HTTP metrics endpoint and returns the
// registry every party in this process records into plus the mux the ops
// plane mounts its probe routes on (both nil when disabled). The registry
// handler keeps the root so existing scrape configs and the JSON paths
// work unchanged; /healthz, /readyz, and /statusz are layered on by
// Plane.Routes.
func serveMetrics(addr string, log *slog.Logger) (*obs.Registry, *http.ServeMux, error) {
	if addr == "" {
		return nil, nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("metrics listener: %w", err)
	}
	reg := obs.NewRegistry()
	mux := http.NewServeMux()
	mux.Handle("/", reg.Handler())
	fmt.Printf("metrics on http://%s/metrics\n", ln.Addr())
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			log.Error("metrics server", "err", err)
		}
	}()
	return reg, mux, nil
}

// lingerForScrape keeps a finished process alive when metrics are enabled so
// the round's snapshot stays scrapeable; without -metrics-addr it returns
// immediately.
func lingerForScrape(reg *obs.Registry) {
	if reg == nil {
		return
	}
	fmt.Println("round done; serving metrics until killed")
	select {}
}

// demoConfig bundles runDemo's knobs (too many for positional arguments).
type demoConfig struct {
	bidders       int
	secret        string
	p0            float64
	seed          int64
	secondPrice   bool
	flags         cli.RoundFlags
	clientTimeout time.Duration
	chaos         *lppa.FaultConfig
	chaosBidders  int
	// tel is the process's telemetry: the metrics registry, and the tracer
	// and flight recorder -trace-out and -flight-dir ask for.
	tel      lppa.Telemetry
	traceOut string
	plane    *ops.Plane
	sampler  *lppa.Tracer
}

// auctioneerConfig assembles the auctioneer's transport config through the
// options constructor, folding in the parsed flags. A positive rateLimit
// wires an epoch admission gate into the accept path, so over-rate
// connections are shed with a retry-after frame before any decode work;
// a non-nil plane additionally gets each shed connection as an
// admission_shed event.
func auctioneerConfig(log *slog.Logger, tel lppa.Telemetry, secondPrice bool, rf cli.RoundFlags,
	rateLimit float64, plane *ops.Plane) (transport.Config, error) {
	opts := []transport.Option{
		transport.WithLogger(log),
		transport.WithTelemetry(tel),
	}
	if secondPrice {
		opts = append(opts, transport.WithSecondPriceCharging())
	}
	if rf.Quorum > 0 {
		opts = append(opts, transport.WithQuorum(rf.Quorum))
	}
	if rf.Straggler > 0 {
		opts = append(opts, transport.WithStragglerTimeout(rf.Straggler))
	}
	if rateLimit > 0 {
		adm, err := epoch.NewAdmission((&cli.EpochFlags{RateLimit: rateLimit}).AdmissionConfig(), tel.Metrics)
		if err != nil {
			return transport.Config{}, err
		}
		opts = append(opts, transport.WithAdmission(adm.AdmitConn))
		if plane != nil {
			opts = append(opts, transport.WithShedNotify(plane.NoteShed))
		}
	}
	return transport.New(opts...)
}

func runDemo(params lppa.Params, cfg demoConfig, log *slog.Logger) error {
	n := cfg.bidders
	lnTTP, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ttpCfg, err := transport.New(transport.WithLogger(log), transport.WithTelemetry(lppa.Telemetry{
		Metrics: cfg.tel.Metrics, Tracer: cfg.tel.Tracer.Named("ttp")}))
	if err != nil {
		return err
	}
	ttpSrv, err := transport.NewTTPServerWithConfig(params, []byte(cfg.secret), 5, 8, lnTTP, ttpCfg)
	if err != nil {
		return err
	}
	defer ttpSrv.Close()

	lnAuc, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	aucCfg, err := auctioneerConfig(log, cfg.tel, cfg.secondPrice, cfg.flags, 0, cfg.plane)
	if err != nil {
		return err
	}
	aucSrv, err := transport.NewAuctioneerServerWithConfig(params, n, ttpSrv.Addr().String(), lnAuc, cfg.seed, aucCfg)
	if err != nil {
		return err
	}
	defer aucSrv.Close()
	fmt.Printf("TTP on %s, auctioneer on %s, %d bidders joining...\n",
		ttpSrv.Addr(), aucSrv.Addr(), n)
	var injector *lppa.FaultInjector
	if cfg.chaos != nil {
		injector = lppa.NewFaultInjector(cfg.seed, *cfg.chaos)
		fmt.Printf("chaos soak: injecting faults into bidders [0, %d) at seed %d\n", cfg.chaosBidders, cfg.seed)
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	var wg sync.WaitGroup
	results := make([]*lppa.Result, n)
	errs := make([]error, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		pt := lppa.Point{X: uint64(rng.Intn(int(params.MaxX + 1))), Y: uint64(rng.Intn(int(params.MaxY + 1)))}
		bids := make([]uint64, params.Channels)
		for r := range bids {
			if rng.Intn(3) > 0 {
				bids[r] = uint64(rng.Intn(int(params.BMax))) + 1
			}
		}
		wg.Add(1)
		go func(i int, pt lppa.Point, bids []uint64) {
			defer wg.Done()
			client := &lppa.BidderClient{ID: i, Params: params, Policy: lppa.DisguisePolicy{P0: cfg.p0, Decay: 0.95},
				Retry: cfg.flags.RetryPolicy(), Timeout: cfg.clientTimeout, Tracer: cfg.tel.Tracer}
			if injector != nil && i < cfg.chaosBidders {
				// Fault only the auctioneer leg: the key-ring fetch stays
				// clean so every class exercises the submission path. The
				// crash classes hit one connection only — crash once,
				// restart clean — so the retried submission must be rescued
				// by the server's nonce dedup rather than die forever.
				aucAddr := aucSrv.Addr().String()
				crashOnce := cfg.chaos.CloseAfterFrames > 0 || cfg.chaos.KillAfterFrames > 0
				dials := 0
				client.Dial = func(network, addr string) (net.Conn, error) {
					conn, err := net.Dial(network, addr)
					if err != nil || addr != aucAddr {
						return conn, err
					}
					dials++
					if crashOnce && dials > 1 {
						return conn, nil
					}
					return injector.Conn(conn), nil
				}
			}
			results[i], errs[i] = client.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
				pt, bids, rand.New(rand.NewSource(cfg.seed+int64(i)+1)))
		}(i, pt, bids)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			if cfg.chaos != nil && i < cfg.chaosBidders {
				fmt.Printf("bidder %2d: gave up under injected faults: %v\n", i, err)
				continue
			}
			return fmt.Errorf("bidder %d: %w", i, err)
		}
	}
	outcome, err := aucSrv.Outcome()
	if err != nil {
		return fmt.Errorf("round failed: %w", err)
	}
	fmt.Printf("round completed in %v\n\n", time.Since(start).Round(time.Millisecond))
	for _, res := range results {
		if res != nil {
			printResult(*res)
		}
	}
	printOutcome(outcome)
	if err := writeTrace(cfg.tel.Tracer, cfg.traceOut); err != nil {
		return err
	}
	lingerForScrape(cfg.tel.Metrics)
	return nil
}

func printResult(r lppa.Result) {
	switch {
	case r.Won:
		fmt.Printf("bidder %2d: WON channel %d, pays %d\n", r.BidderID, r.Channel, r.Price)
	case r.Voided:
		fmt.Printf("bidder %2d: award voided (zero bid won)\n", r.BidderID)
	default:
		fmt.Printf("bidder %2d: no spectrum this round\n", r.BidderID)
	}
}

func printOutcome(o *transport.RoundOutcome) {
	fmt.Printf("\nauctioneer: %d results, revenue %d, %d voided awards\n",
		len(o.Results), o.Revenue, o.Voided)
	if len(o.Excluded) > 0 {
		fmt.Printf("excluded bidders (missed the straggler deadline): %v\n", o.Excluded)
	}
}

func parseBids(csv string, k int) ([]uint64, error) {
	if csv == "" {
		return nil, fmt.Errorf("bidder needs -bids")
	}
	parts := strings.Split(csv, ",")
	if len(parts) != k {
		return nil, fmt.Errorf("%d bids for %d channels", len(parts), k)
	}
	out := make([]uint64, k)
	for i, p := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parse bid %q: %w", p, err)
		}
		out[i] = v
	}
	return out, nil
}
