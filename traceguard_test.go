package lppa_test

import (
	"math/rand"
	"testing"

	"lppa"
	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// TestTraceDisabledAllocationFree is the observed-twin allocation guard
// (`make trace-guard`): running a round with the zero Telemetry — the
// production default — must allocate exactly what the untraced baseline
// allocates. The variants are measured alternately until they agree:
// one-time runtime warmup can land a stray allocation in whichever
// measurement runs first, but a real per-round leak never converges.
func TestTraceDisabledAllocationFree(t *testing.T) {
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("trace-guard"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
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
	run := func(opts ...lppa.RunOption) func() {
		return func() {
			in := lppa.RoundInput{Points: pts, Bids: bids,
				Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(1))}
			if _, err := lppa.Run(p, ring, in, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	offFn := run()
	disFn := run(lppa.WithTelemetry(lppa.Telemetry{}))
	offFn() // warm both paths before measuring
	disFn()
	var off, disabled float64
	for i := 0; i < 5; i++ {
		off = testing.AllocsPerRun(10, offFn)
		disabled = testing.AllocsPerRun(10, disFn)
		if off == disabled {
			return
		}
	}
	t.Errorf("zero-Telemetry round allocates %.0f allocs, untraced %.0f — disabled telemetry must be free", disabled, off)
}

// TestTraceDisabledAllocationFreeSampler extends the guard to the ops
// plane's sampled tracing: rounds a sampled tracer skips (the 1-in-K
// steady state) must cost exactly one atomic increment over the untraced
// baseline — zero extra allocations and no span labels. The seed is
// chosen so the schedule's deterministic offset lands far beyond every
// round this test executes.
func TestTraceDisabledAllocationFreeSampler(t *testing.T) {
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("trace-guard"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
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

	// Find a seed whose 1-in-2^20 offset skips every round we will run:
	// probe a throwaway tracer's schedule, then build a fresh one.
	const k, horizon = 1 << 20, 4096
	var sampler *lppa.Tracer
	for seed := int64(0); seed < 64; seed++ {
		probe := lppa.NewSampledTracer("guard", seed, k)
		for i := 0; i < horizon && probe.Sampled() == 0; i++ {
			probe.StartTrace("probe")
		}
		if probe.Sampled() == 0 {
			sampler = lppa.NewSampledTracer("guard", seed, k)
			break
		}
	}
	if sampler == nil {
		t.Fatal("no seed in [0,64) keeps the first 4096 rounds unsampled at k=2^20")
	}

	run := func(opts ...lppa.RunOption) func() {
		return func() {
			in := lppa.RoundInput{Points: pts, Bids: bids,
				Policy: core.DefaultDisguise(), Rng: rand.New(rand.NewSource(1))}
			if _, err := lppa.Run(p, ring, in, opts...); err != nil {
				t.Fatal(err)
			}
		}
	}
	offFn := run()
	samFn := run(lppa.WithTelemetry(lppa.Telemetry{Tracer: sampler}))
	offFn() // warm both paths before measuring
	samFn()
	var off, sampled float64
	for i := 0; i < 5; i++ {
		off = testing.AllocsPerRun(10, offFn)
		sampled = testing.AllocsPerRun(10, samFn)
		if off == sampled {
			if sampler.Sampled() != 0 {
				t.Fatal("the sampled tracer traced a round inside the measurement")
			}
			return
		}
	}
	t.Errorf("unsampled round allocates %.0f allocs, untraced %.0f — the skipped path must be free", sampled, off)
}
