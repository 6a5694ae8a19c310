package epoch_test

import (
	"errors"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/epoch"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/round"
)

// TestEpochServiceSoak is the `make epoch-soak` target: a short
// multi-epoch chaos run meant for -race. Concurrent submitters hammer the
// admission gate while the sealing ticker and explicit Seal calls race
// each other, with a live tracer and flight recorder attached so any
// failed or degraded epoch leaves a dump behind (CI uploads the dump
// directory when the job fails). The exactness assertions at the end are
// the point: however the races interleave, the quota ledger must equal
// the admitted-submission count and the billing ledger must equal the sum
// of every charge the epochs reported.
func TestEpochServiceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run; skipped under -short")
	}
	p := core.Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("epoch-soak"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	flightDir := os.Getenv("LPPA_SOAK_FLIGHT_DIR")
	if flightDir == "" {
		flightDir = t.TempDir()
	}
	tracer := obs.NewTracer("epoch-soak")
	flight := obs.NewFlightRecorder(flightDir, 8, 0)
	reg := obs.NewRegistry()

	billingStore, quotaStore := epoch.NewMemStore(), epoch.NewMemStore()
	billing, err := epoch.NewAccountant("billing", billingStore, p.BMax*4, reg)
	if err != nil {
		t.Fatal(err)
	}
	quota, err := epoch.NewAccountant("quota", quotaStore, 64, reg)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := epoch.New(epoch.Config{
		Params: p,
		Ring:   ring,
		Seed:   99,
		Policy: core.DisguisePolicy{P0: 1},
		// Tight enough that the gate sheds under the submitter burst, loose
		// enough that every epoch still gets a population.
		Admission:    epoch.AdmissionConfig{Rate: 800, Burst: 200},
		Billing:      billing,
		Quota:        quota,
		Interval:     2 * time.Millisecond,
		RoundOptions: []round.Option{round.WithWorkers(4)},
		Telemetry:    obs.Telemetry{Metrics: reg, Tracer: tracer, Flight: flight},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Drain concurrently: tally epochs and the charges each one billed so
	// the billing ledger has an independent ground truth to match.
	var epochs int
	var billed uint64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for res := range svc.Results() {
			if res.Err != nil {
				t.Errorf("epoch %d failed: %v", res.Epoch, res.Err)
				continue
			}
			epochs++
			for _, c := range res.Result.Outcome.Charges {
				billed += uint64(c)
			}
		}
	}()

	const submitters = 8
	const perSubmitter = 150
	var admitted, rejected atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for i := 0; i < perSubmitter; i++ {
				sub := epoch.Submission{
					// Overlapping bidder ranges across goroutines force
					// latest-wins resubmission races.
					Bidder: rng.Intn(120),
					Point:  geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))},
					Bids:   make([]uint64, p.Channels),
				}
				for r := range sub.Bids {
					sub.Bids[r] = uint64(rng.Intn(int(p.BMax) + 1))
				}
				err := svc.Submit(sub)
				var rl *epoch.ErrRateLimited
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.As(err, &rl):
					rejected.Add(1)
				default:
					t.Errorf("submitter %d: %v", g, err)
				}
				if i%20 == 19 {
					// Explicit seals racing the ticker are the chaos.
					if err := svc.Seal(); err != nil {
						t.Errorf("submitter %d seal: %v", g, err)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	<-drained

	// A quota debit can land just after the ticker sealed its epoch; the
	// operator's shutdown barrier is one last Flush over both ledgers.
	if err := (&epoch.Accounting{Billing: billing, Quota: quota}).Flush(); err != nil {
		t.Fatal(err)
	}

	if epochs == 0 {
		t.Fatal("soak ran zero epochs")
	}
	if got, want := admitted.Load()+rejected.Load(), uint64(submitters*perSubmitter); got != want {
		t.Fatalf("lost submissions: admitted+rejected = %d, want %d", got, want)
	}
	sum := func(s *epoch.MemStore) uint64 {
		var n uint64
		for _, v := range s.Totals() {
			n += v
		}
		return n
	}
	if got := sum(quotaStore); got != admitted.Load() {
		t.Errorf("quota ledger inexact: persisted %d, admitted %d", got, admitted.Load())
	}
	if got := sum(billingStore); got != billed {
		t.Errorf("billing ledger inexact: persisted %d, epochs billed %d", got, billed)
	}
	t.Logf("soak: %d epochs, %d admitted, %d rate-limited, %d billed over %d store calls",
		epochs, admitted.Load(), rejected.Load(), billed, billingStore.Calls()+quotaStore.Calls())
}
