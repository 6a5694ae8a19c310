package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"lppa"
	"lppa/internal/cli"
	"lppa/internal/epoch"
)

// runEpochDemo drives the epochal auction service in-process: -epochs
// populations stream through the admission gate, each sealed epoch
// allocates while the next one collects, and the batched ledgers settle
// billing and quota against a simulated datastore. It prints every epoch's
// outcome as it lands plus an accounting summary, so `-epochs 5
// -rate-limit 100` is a one-command tour of the service API.
func runEpochDemo(params lppa.Params, cfg demoConfig, ef cli.EpochFlags) error {
	ring, err := lppa.DeriveKeyRing([]byte(cfg.secret), params.Channels, 5, 8)
	if err != nil {
		return err
	}
	// One simulated datastore per ledger; the thresholds keep flushes
	// batched mid-epoch while the epoch-close barrier keeps totals exact.
	reg := cfg.tel.Metrics
	billingStore, quotaStore := epoch.NewMemStore(), epoch.NewMemStore()
	billing, err := epoch.NewAccountant("billing", billingStore, params.BMax*4, reg)
	if err != nil {
		return err
	}
	quota, err := epoch.NewAccountant("quota", quotaStore, 64, reg)
	if err != nil {
		return err
	}
	// Every epoch's round reports into the registry. With -trace-sample,
	// one epoch in K carries full spans and lands in the flight ring; the
	// ops plane watches the SLO windows and serves /healthz + /statusz off
	// the metrics mux.
	tel := lppa.Telemetry{Metrics: reg}
	if cfg.sampler != nil {
		tel.Tracer, tel.Flight = cfg.sampler, cfg.tel.Flight
	}
	svc, err := epoch.New(epoch.Config{
		Params:       params,
		Ring:         ring,
		Seed:         cfg.seed,
		Policy:       lppa.DisguisePolicy{P0: cfg.p0, Decay: 0.95},
		Admission:    ef.AdmissionConfig(),
		Billing:      billing,
		Quota:        quota,
		Interval:     ef.Interval,
		RoundOptions: cfg.flags.RoundOptions(),
		Telemetry:    tel,
		Ops:          cfg.plane,
	})
	if err != nil {
		return err
	}

	// ran counts epochs that actually allocated: a population the gate
	// rejected wholesale leaves an empty intake, and sealing an empty
	// intake is a no-op rather than an empty epoch.
	ran := 0
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for res := range svc.Results() {
			ran++
			if res.Err != nil {
				fmt.Printf("epoch %d: FAILED: %v\n", res.Epoch, res.Err)
				continue
			}
			out := res.Result.Outcome
			fmt.Printf("epoch %d: %d bidders, %d satisfied, revenue %d, %d voided\n",
				res.Epoch, len(res.Bidders), out.SatisfiedBidders, out.Revenue, res.Result.Voided)
		}
	}()

	rng := rand.New(rand.NewSource(cfg.seed))
	admitted, shed := 0, 0
	start := time.Now()
	for e := 0; e < ef.Epochs; e++ {
		for i := 0; i < cfg.bidders; i++ {
			sub := epoch.Submission{
				Bidder: i,
				Point:  lppa.Point{X: uint64(rng.Intn(int(params.MaxX + 1))), Y: uint64(rng.Intn(int(params.MaxY + 1)))},
				Bids:   make([]uint64, params.Channels),
			}
			for r := range sub.Bids {
				if rng.Intn(3) > 0 {
					sub.Bids[r] = uint64(rng.Intn(int(params.BMax))) + 1
				}
			}
			err := svc.Submit(sub)
			var rl *epoch.ErrRateLimited
			switch {
			case errors.As(err, &rl):
				shed++
			case err != nil:
				return err
			default:
				admitted++
			}
		}
		if ef.Interval > 0 {
			time.Sleep(ef.Interval)
		} else if err := svc.Seal(); err != nil {
			return err
		}
	}
	if err := svc.Close(); err != nil {
		return err
	}
	<-drained

	elapsed := time.Since(start)
	fmt.Printf("\n%d epochs in %v: %d submissions admitted, %d rate-limited\n",
		ran, elapsed.Round(time.Millisecond), admitted, shed)
	fmt.Printf("billing ledger: %d collected over %d store calls / %d key writes\n",
		storeSum(billingStore), billingStore.Calls(), billingStore.Writes())
	fmt.Printf("quota ledger:   %d debits over %d store calls / %d key writes\n",
		storeSum(quotaStore), quotaStore.Calls(), quotaStore.Writes())
	lingerForScrape(reg)
	return nil
}

func storeSum(s *epoch.MemStore) uint64 {
	var sum uint64
	for _, v := range s.Totals() {
		sum += v
	}
	return sum
}
