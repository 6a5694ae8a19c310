package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"lppa/internal/auction"
	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/epoch"
	"lppa/internal/geo"
	"lppa/internal/obs"
	"lppa/internal/transport"
)

// netShape sizes the networked workload: one long-lived TTP server and,
// on a fixed cadence, a fresh auctioneer server with two bidder clients —
// the smallest rounds, so per-message costs (dial, frames, key-ring fetch,
// charge RPC, server lifecycle) are what the round pays for.
type netShape struct {
	mix dataset.DensityMix
	// every is the pacing: round k is due at k·every whether or not round
	// k−1 finished. Closed-loop rounds exhaust loopback ports with sockets
	// in TIME_WAIT; a fixed rate bounds them.
	every  time.Duration
	warmup int
	setups int
}

func loopbackNet(tiny bool) netShape {
	s := netShape{mix: dataset.UrbanMix(), every: 10 * time.Millisecond, warmup: 50, setups: 9}
	if tiny {
		s.warmup, s.setups = 5, 2
	}
	return s
}

const bidders = 2

// netOp is one networked round's inputs: two bidders' locations and bids,
// each bidder's own rng seed, and the auctioneer's allocation seed.
type netOp struct {
	pts         []geo.Point
	bids        [][]uint64
	bidderSeeds []int64
	aucSeed     int64
}

func netInput(seed int64, shape netShape, op int) netOp {
	in := netOp{
		pts:     shape.mix.Points(grid, bidders, rand.New(rand.NewSource(epoch.EpochSeed(seed^saltPopulation, op)))),
		aucSeed: epoch.EpochSeed(seed, op),
	}
	brng := rand.New(rand.NewSource(epoch.EpochSeed(seed^saltBids, op)))
	for i := 0; i < bidders; i++ {
		in.bids = append(in.bids, bidsFor(brng))
		in.bidderSeeds = append(in.bidderSeeds, epoch.EpochSeed(seed^saltBidder, bidders*op+i))
	}
	return in
}

// netRig is what every round of a run shares: the protocol parameters,
// the TTP's address and the servers' configuration. dial, when set,
// replaces the clients' dialer (the traced pass times and counts dials).
type netRig struct {
	params  core.Params
	ttpAddr string
	cfg     transport.Config
	dial    func(network, addr string) (net.Conn, error)
}

// round runs one networked round and returns its outcome, in bidder order,
// and when the last bidder had its result. With a tracer, each step gets a
// span under a "net_round" root; with nil, the spans cost nothing.
func (rig *netRig) round(tr *obs.Tracer, op int, in netOp) (outcome, time.Time, error) {
	root := tr.StartTrace("net_round", obs.L("op", strconv.Itoa(op)))
	defer root.End()
	sp := tr.StartSpan("transport.server_start", root.Context())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sp.End()
		return outcome{}, time.Time{}, err
	}
	srv, err := transport.NewAuctioneerServerWithConfig(rig.params, bidders, rig.ttpAddr, ln, in.aucSeed, rig.cfg)
	sp.End()
	if err != nil {
		ln.Close()
		return outcome{}, time.Time{}, err
	}

	var (
		wg     sync.WaitGroup
		res    [bidders]*transport.Result
		errs   [bidders]error
		doneAt [bidders]time.Time
	)
	for i := 0; i < bidders; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := tr.StartSpan("transport.participate", root.Context(), obs.L("bidder", strconv.Itoa(i)))
			c := &transport.BidderClient{ID: i, Params: rig.params, Policy: policy,
				Timeout: 10 * time.Second, AwaitTimeout: 30 * time.Second, Dial: rig.dial}
			res[i], errs[i] = c.Participate(rig.ttpAddr, srv.Addr().String(), in.pts[i], in.bids[i],
				rand.New(rand.NewSource(in.bidderSeeds[i])))
			doneAt[i] = time.Now()
			sp.End()
		}(i)
	}
	wg.Wait()
	last := doneAt[0]
	for i, err := range errs {
		if doneAt[i].After(last) {
			last = doneAt[i]
		}
		if err != nil {
			// Shutdown fails the round, which unblocks the other bidder.
			srv.Close()
			return outcome{}, last, fmt.Errorf("bidder %d: %w", i, err)
		}
	}
	sp = tr.StartSpan("transport.outcome", root.Context())
	out, err := srv.Outcome()
	sp.End()
	sp = tr.StartSpan("transport.close", root.Context())
	cerr := srv.Close()
	sp.End()
	if err != nil {
		return outcome{}, last, err
	}
	if cerr != nil {
		return outcome{}, last, cerr
	}

	// Every bidder must have its result, the auctioneer's record must
	// agree with what each bidder was told, and revenue must be Σ prices.
	var o outcome
	var paid uint64
	for i, r := range res {
		if r == nil || r.BidderID != i {
			return outcome{}, last, fmt.Errorf("bidder %d got no result of its own", i)
		}
		if i >= len(out.Results) || out.Results[i] != *r {
			return outcome{}, last, fmt.Errorf("bidder %d told %+v, auctioneer recorded otherwise", i, *r)
		}
		if r.Won || r.Voided {
			o.assignments = append(o.assignments, auction.Assignment{Bidder: i, Channel: r.Channel})
			o.charges = append(o.charges, r.Price)
		}
		if r.Won {
			o.satisfied++
			paid += r.Price
		}
		if r.Voided {
			o.voided++
		}
	}
	if out.Revenue != paid || out.Voided != o.voided {
		return outcome{}, last, fmt.Errorf("outcome revenue %d voided %d, bidders paid %d with %d voided",
			out.Revenue, out.Voided, paid, o.voided)
	}
	o.revenue = out.Revenue
	return o, last, nil
}

// byBidder orders an outcome's awards by bidder, the order a networked
// round reports them in.
func byBidder(o outcome) outcome {
	idx := make([]int, len(o.assignments))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return o.assignments[idx[a]].Bidder < o.assignments[idx[b]].Bidder })
	s := o
	s.assignments, s.charges = make([]auction.Assignment, len(idx)), make([]uint64, len(idx))
	for to, from := range idx {
		s.assignments[to], s.charges[to] = o.assignments[from], o.charges[from]
	}
	return s
}

// dialLog times and counts the clients' dials.
type dialLog struct {
	mu  sync.Mutex
	dur []float64
}

func (d *dialLog) dial(network, addr string) (net.Conn, error) {
	start := time.Now()
	c, err := net.DialTimeout(network, addr, 10*time.Second)
	d.mu.Lock()
	d.dur = append(d.dur, ms(time.Since(start)))
	d.mu.Unlock()
	return c, err
}

func runNet(rc runConfig, shape netShape) (*measurement, error) {
	m := &measurement{shape: fmt.Sprintf("%s bidders=%d every=%v setups=%d warmup=%d",
		shape.mix.Name, bidders, shape.every, shape.setups, shape.warmup)}
	params := paramsFor(shape.mix.Lambda)
	cfg, err := transport.New(transport.WithLogger(slog.New(slog.NewTextHandler(io.Discard, nil))))
	if err != nil {
		return nil, err
	}
	startTTP := func() (*transport.TTPServer, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv, err := transport.NewTTPServerWithConfig(params, ringSeed(rc.seed), 5, 8, ln, cfg)
		if err != nil {
			ln.Close()
		}
		return srv, err
	}
	ids := identity(bidders)
	check := func(op int, in netOp, o outcome, err error) string {
		m.attempted++
		if err != nil {
			m.fail("round %d: %v", op, err)
			return ""
		}
		if err := checkOutcome(in.pts, in.bids, params.Lambda, o); err != nil {
			m.fail("round %d: %v", op, err)
		}
		return opDigest(op, ids, o)
	}

	// Set-up is the TTP server with its key ring plus the cold first
	// round, repeated.
	g := newGate()
	var first string
	in0 := netInput(rc.seed, shape, 0)
	for i := 0; i < shape.setups; i++ {
		start := time.Now()
		ttpSrv, err := startTTP()
		if err != nil {
			return nil, err
		}
		rig := &netRig{params: params, ttpAddr: ttpSrv.Addr().String(), cfg: cfg}
		o, _, err := rig.round(nil, 0, in0)
		m.setup = append(m.setup, time.Since(start).Seconds())
		ttpSrv.Close()
		switch d := check(0, in0, o, err); {
		case i == 0:
			first = d
			g.add(0, ids, o)
		case d != first:
			m.fail("set-up %d: round 0 digest %s, first set-up gave %s", i, d, first)
		}
	}

	ttpSrv, err := startTTP()
	if err != nil {
		return nil, err
	}
	defer ttpSrv.Close()
	rig := &netRig{params: params, ttpAddr: ttpSrv.Addr().String(), cfg: cfg}

	// paced runs rounds from op on, one every shape.every from now, until
	// stop says so; each round's latency runs from when it was due.
	type done struct {
		op      int
		in      netOp
		o       outcome
		ms      float64
		queueMs float64
		digest  string
	}
	paced := func(tr *obs.Tracer, op int, stop func(k int, now time.Time) bool) []done {
		var ran []done
		start := time.Now()
		for k := 0; ; k++ {
			in := netInput(rc.seed, shape, op+k)
			due := start.Add(time.Duration(k) * shape.every)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			begin := time.Now()
			if stop(k, begin) {
				return ran
			}
			o, last, err := rig.round(tr, op+k, in)
			ran = append(ran, done{op + k, in, o, ms(last.Sub(due)), ms(begin.Sub(due)), check(op+k, in, o, err)})
		}
	}

	for _, d := range paced(nil, 1, func(k int, _ time.Time) bool { return k == shape.warmup }) {
		g.add(d.op, ids, d.o)
	}
	m.digest = g.digest()

	timed := rc.seconds
	if rc.trace {
		timed /= 2
	}
	op := 1 + shape.warmup
	ph := startPhase()
	deadline := time.Now().Add(timed)
	untraced := paced(nil, op, func(_ int, now time.Time) bool {
		ph.sample()
		return !now.Before(deadline)
	})
	m.phase = ph.stop(len(untraced))
	for _, d := range untraced {
		m.latency = append(m.latency, d.ms)
		m.late = append(m.late, d.queueMs)
	}
	m.note("round_ms.p99", "ms", pct(m.latency, 99), len(m.latency))
	m.note("transport.queue_ms.p99", "ms", pct(m.late, 99), len(m.late))
	if !rc.trace {
		return m, nil
	}

	// Traced pass: the same kind of rounds with each step timed from
	// outside, an extra key-ring fetch, and an in-process replay of each
	// round's inputs through the layers, which must reproduce the
	// networked awards.
	tr := obs.NewTracerBuffered("bench", 1<<20)
	dials := &dialLog{}
	rig.dial = dials.dial
	ring, err := keyRing(rc.seed)
	if err != nil {
		return nil, err
	}
	op += len(untraced)
	deadline = time.Now().Add(timed)
	traced := paced(tr, op, func(k int, now time.Time) bool { return k > 0 && !now.Before(deadline) })
	for _, d := range traced {
		m.tracedMs = append(m.tracedMs, d.ms)
		sp := tr.StartTrace("transport.fetch_keyring")
		_, err := transport.FetchKeyRing(rig.ttpAddr)
		sp.End()
		if err != nil {
			m.fail("fetch key ring: %v", err)
		}
		p := plan{points: d.in.pts, bids: d.in.bids, ttpSeed: int64(len(ringSeed(rc.seed))) + 1,
			bidderSeeds: d.in.bidderSeeds, alloc: rand.New(rand.NewSource(d.in.aucSeed))}
		t, err := decompose(tr, d.op, params, ring, p)
		if err != nil {
			m.fail("traced round %d: %v", d.op, err)
			continue
		}
		if got := opDigest(d.op, ids, byBidder(t.outcome)); got != d.digest {
			m.fail("traced round %d: in-process digest %s, networked %s", d.op, got, d.digest)
		}
		m.traced = append(m.traced, t)
	}
	m.baseline = m.latency
	m.spans = tr.Take()

	durs := make(map[string][]float64)
	for _, s := range m.spans {
		durs[s.Name] = append(durs[s.Name], ms(s.Duration))
	}
	participate := durs["transport.participate"]
	m.note("transport.server_start_ms", "ms", p50(durs["transport.server_start"]), len(durs["transport.server_start"]))
	m.note("transport.fetch_keyring_ms", "ms", p50(durs["transport.fetch_keyring"]), len(durs["transport.fetch_keyring"]))
	m.note("transport.participate_ms.p50", "ms", p50(participate), len(participate))
	m.note("transport.participate_ms.p99", "ms", pct(participate, 99), len(participate))
	m.note("transport.close_ms", "ms", p50(durs["transport.close"]), len(durs["transport.close"]))
	m.note("transport.dial_ms.p50", "ms", p50(dials.dur), len(dials.dur))
	m.note("transport.dials_per_bidder", "count", ratio(float64(len(dials.dur)), float64(bidders*len(traced))), bidders*len(traced))
	return m, nil
}
