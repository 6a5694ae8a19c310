package epoch

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/round"
	"lppa/internal/sim"
)

func epochFixture(t *testing.T) (core.Params, *mask.KeyRing) {
	t.Helper()
	p := core.Params{Channels: 6, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("epoch-service"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	return p, ring
}

// population builds n submissions with distinct external bidder ids
// (ascending with i, so the service's sorted batch order is i order).
func population(p core.Params, n int, seed int64) []Submission {
	rng := rand.New(rand.NewSource(seed))
	subs := make([]Submission, n)
	for i := range subs {
		bids := make([]uint64, p.Channels)
		for r := range bids {
			if rng.Intn(4) > 0 {
				bids[r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
		subs[i] = Submission{
			Bidder: 500 + 3*i,
			Point:  geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))},
			Bids:   bids,
		}
	}
	return subs
}

// submitAll offers a population in shuffled order — the sealed batch
// must come out in sorted-bidder order regardless.
func submitAll(t *testing.T, s *Service, subs []Submission, shuffleSeed int64) {
	t.Helper()
	order := rand.New(rand.NewSource(shuffleSeed)).Perm(len(subs))
	for _, i := range order {
		if err := s.Submit(subs[i]); err != nil {
			t.Fatalf("submit bidder %d: %v", subs[i].Bidder, err)
		}
	}
}

// drain collects every result until the channel closes.
func drain(t *testing.T, s *Service) []*EpochResult {
	t.Helper()
	var out []*EpochResult
	for r := range s.Results() {
		if r.Err != nil {
			t.Fatalf("epoch %d failed: %v", r.Epoch, r.Err)
		}
		out = append(out, r)
	}
	return out
}

// sameOutcome compares everything a round Result exposes except the
// Auctioneer pointer (nil on service results, which carry no transcript).
func sameOutcome(t *testing.T, tag string, got, want *round.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Outcome, want.Outcome) {
		t.Errorf("%s: outcomes differ\n service=%+v\n one-shot=%+v", tag, got.Outcome, want.Outcome)
	}
	if got.Voided != want.Voided || got.Violations != want.Violations ||
		got.SubmissionBytes != want.SubmissionBytes || !reflect.DeepEqual(got.Excluded, want.Excluded) {
		t.Errorf("%s: voided/violations/bytes/excluded differ", tag)
	}
}

// TestEpochEquivalence is the tentpole contract: every epoch the service
// runs is bit-identical to a one-shot round.Run over the same admitted
// set with the epoch's derived seed — across the workers × charging grid,
// with back-to-back epochs of different populations. Every published
// result carries no auctioneer, so the service pins no transcript, and
// every epoch's round reports into the service's registry.
func TestEpochEquivalence(t *testing.T) {
	p, ring := epochFixture(t)
	const seed = 77
	grid := []struct {
		tag  string
		opts []round.Option
	}{
		{"serial", nil},
		{"workers4", []round.Option{round.WithWorkers(4)}},
		{"workers2", []round.Option{round.WithWorkers(2)}},
		{"second-price", []round.Option{round.WithSecondPrice()}},
	}
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	for _, tc := range grid {
		reg := obs.NewRegistry()
		s, err := New(Config{
			Params: p, Ring: ring, Seed: seed, Policy: pol,
			RoundOptions: tc.opts, Telemetry: obs.Telemetry{Metrics: reg},
		})
		if err != nil {
			t.Fatal(err)
		}
		pops := [][]Submission{
			population(p, 30, 11),
			population(p, 45, 12),
			population(p, 30, 13),
		}
		for e, pop := range pops {
			submitAll(t, s, pop, int64(100+e))
			if err := s.Seal(); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		results := drain(t, s)
		if len(results) != len(pops) {
			t.Fatalf("%s: %d results for %d sealed epochs", tc.tag, len(results), len(pops))
		}
		snap := reg.Snapshot()
		if got := snap.Counters["lppa_rounds_total"]; got != uint64(len(results)) {
			t.Errorf("%s: lppa_rounds_total = %d, want %d epochs", tc.tag, got, len(results))
		}
		phases := 0
		for name, h := range snap.Histograms {
			if strings.HasPrefix(name, round.PhaseMetric+"{") {
				phases++
				if h.Count != uint64(len(results)) {
					t.Errorf("%s: %s count = %d, want %d epochs", tc.tag, name, h.Count, len(results))
				}
			}
		}
		if phases != 5 {
			t.Errorf("%s: %d %s series, want one per phase (5)", tc.tag, phases, round.PhaseMetric)
		}
		for e, res := range results {
			if res.Epoch != e {
				t.Fatalf("%s: result %d labelled epoch %d", tc.tag, e, res.Epoch)
			}
			if res.Result.Auctioneer != nil {
				t.Errorf("%s epoch %d: published result holds its auctioneer", tc.tag, e)
			}
			pop := pops[e]
			wantIDs := make([]int, len(pop))
			pts := make([]geo.Point, len(pop))
			bids := make([][]uint64, len(pop))
			for i, sub := range pop {
				wantIDs[i], pts[i], bids[i] = sub.Bidder, sub.Point, sub.Bids
			}
			if !reflect.DeepEqual(res.Bidders, wantIDs) {
				t.Fatalf("%s epoch %d: bidder order %v, want sorted %v", tc.tag, e, res.Bidders, wantIDs)
			}
			oneShot, err := round.Run(p, ring, round.Input{
				Points: pts, Bids: bids, Policy: pol,
				Rng: rand.New(rand.NewSource(EpochSeed(seed, e))),
			}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			sameOutcome(t, tc.tag+"/epoch"+string(rune('0'+e)), res.Result, oneShot)
		}
	}
}

// TestEpochEquivalenceChurn extends the equivalence contract to the churn
// edges: a bidder that departs after intake but before the seal must be
// absent from that epoch, and a bidder that resubmits across the seal
// boundary must land its old bids in the sealed epoch and its new bids in
// the next — each epoch still bit-identical to a one-shot round.Run over
// exactly the set it admitted.
func TestEpochEquivalenceChurn(t *testing.T) {
	p, ring := epochFixture(t)
	const seed = 91
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	s, err := New(Config{Params: p, Ring: ring, Seed: seed, Policy: pol,
		RoundOptions: []round.Option{round.WithWorkers(2)}})
	if err != nil {
		t.Fatal(err)
	}
	pop := population(p, 24, 81)
	leaver, straddler := pop[3], pop[10]
	submitAll(t, s, pop, 1)

	// Churn edge 1: departs after intake, before the seal.
	if ok, err := s.Withdraw(leaver.Bidder); err != nil || !ok {
		t.Fatalf("withdraw pending bidder: ok=%v err=%v", ok, err)
	}
	// Withdrawing a bidder that never joined is a quiet no-op.
	if ok, err := s.Withdraw(999_999); err != nil || ok {
		t.Fatalf("withdraw unknown bidder: ok=%v err=%v", ok, err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}

	// Churn edge 2: resubmission after the seal opens the next epoch with
	// the revised bids; the sealed epoch keeps the originals. A departure
	// arriving after the seal is too late to touch epoch 0.
	revised := straddler
	revised.Bids = append([]uint64(nil), revised.Bids...)
	revised.Bids[0] = p.BMax
	if err := s.Submit(revised); err != nil {
		t.Fatal(err)
	}
	if ok, err := s.Withdraw(leaver.Bidder); err != nil || ok {
		t.Fatalf("post-seal withdraw of sealed bidder: ok=%v err=%v (epoch 0 already owns it)", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	results := drain(t, s)
	if len(results) != 2 {
		t.Fatalf("%d results, want 2 (sealed epoch + Close's residual seal)", len(results))
	}

	// Epoch 0: everyone but the leaver, original bids.
	want0 := make([]Submission, 0, len(pop)-1)
	for _, sub := range pop {
		if sub.Bidder != leaver.Bidder {
			want0 = append(want0, sub)
		}
	}
	checkEpochOneShot(t, p, ring, pol, seed, results[0], want0,
		[]round.Option{round.WithWorkers(2)})
	// Epoch 1: just the straddler, revised bids.
	checkEpochOneShot(t, p, ring, pol, seed, results[1], []Submission{revised},
		[]round.Option{round.WithWorkers(2)})
}

// checkEpochOneShot asserts one EpochResult is bit-identical to a
// one-shot round.Run over want (already in ascending-bidder order).
func checkEpochOneShot(t *testing.T, p core.Params, ring *mask.KeyRing, pol core.DisguisePolicy,
	seed int64, res *EpochResult, want []Submission, opts []round.Option) {
	t.Helper()
	if res.Err != nil {
		t.Fatalf("epoch %d failed: %v", res.Epoch, res.Err)
	}
	ids := make([]int, len(want))
	pts := make([]geo.Point, len(want))
	bids := make([][]uint64, len(want))
	for i, sub := range want {
		ids[i], pts[i], bids[i] = sub.Bidder, sub.Point, sub.Bids
	}
	if !reflect.DeepEqual(res.Bidders, ids) {
		t.Fatalf("epoch %d admitted %v, want %v", res.Epoch, res.Bidders, ids)
	}
	oneShot, err := round.Run(p, ring, round.Input{
		Points: pts, Bids: bids, Policy: pol,
		Rng: rand.New(rand.NewSource(EpochSeed(seed, res.Epoch))),
	}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "churn-epoch", res.Result, oneShot)
}

// TestServiceArrivalReplay replays a seeded Poisson arrival schedule with
// resubmit and depart churn through SubmitAt/Withdraw/Seal on the
// schedule's own clock, under an admission rate limit that sheds and with
// every dupEvery-th submission sent twice, against a reference model of
// intake: an admitted entry replaces the bidder's pending one, a depart
// removes it, and a seal takes everything pending. Every epoch must admit
// exactly the model's set and match a one-shot round over it; a replay
// with the same seed must reproduce the epochs, and another seed must not.
func TestServiceArrivalReplay(t *testing.T) {
	p, ring := epochFixture(t)
	pol := core.DisguisePolicy{P0: 0.6, Decay: 0.95}
	opts := []round.Option{round.WithWorkers(2)}
	const (
		n        = 60
		horizon  = 2.0 // logical seconds
		epochLen = 0.5
		dupEvery = 7
	)
	replay := func(seed int64) []string {
		sched, err := sim.BuildSchedule(sim.ArrivalConfig{
			Process: "poisson", ResubmitFrac: 0.3, DepartFrac: 0.2, Horizon: horizon,
		}, n, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{
			Params: p, Ring: ring, Seed: seed, Policy: pol,
			Admission:    AdmissionConfig{Rate: 20, Burst: 4},
			RoundOptions: opts,
		})
		if err != nil {
			t.Fatal(err)
		}
		pop := population(p, n, seed)
		bidRng := rand.New(rand.NewSource(seed + 1))

		pending := make(map[int]Submission) // the model's collecting epoch
		var want [][]Submission             // the model's sealed epochs
		seal := func() {
			if len(pending) == 0 {
				return // an empty seal consumes no epoch number
			}
			ids := make([]int, 0, len(pending))
			for id := range pending {
				ids = append(ids, id)
			}
			sort.Ints(ids)
			epoch := make([]Submission, len(ids))
			for i, id := range ids {
				epoch[i] = pending[id]
			}
			want = append(want, epoch)
			pending = make(map[int]Submission)
		}
		shed := 0
		submit := func(sub Submission, at float64) {
			err := s.SubmitAt(sub, at)
			var rl *ErrRateLimited
			switch {
			case err == nil:
				pending[sub.Bidder] = sub
			case errors.As(err, &rl):
				shed++
			default:
				t.Fatalf("submit bidder %d at %.3fs: %v", sub.Bidder, at, err)
			}
		}

		nextSeal, submitted := epochLen, 0
		for _, ev := range sched {
			for ev.At >= nextSeal {
				if err := s.Seal(); err != nil {
					t.Fatal(err)
				}
				seal()
				nextSeal += epochLen
			}
			sub := pop[ev.Bidder]
			switch ev.Kind {
			case sim.EventDepart:
				_, had := pending[sub.Bidder]
				if ok, err := s.Withdraw(sub.Bidder); err != nil || ok != had {
					t.Fatalf("withdraw bidder %d at %.3fs: ok=%v err=%v, model pending=%v",
						sub.Bidder, ev.At, ok, err, had)
				}
				delete(pending, sub.Bidder)
				continue
			case sim.EventResubmit:
				sub.Bids = make([]uint64, p.Channels)
				for r := range sub.Bids {
					sub.Bids[r] = uint64(bidRng.Intn(int(p.BMax))) + 1
				}
			}
			submitted++
			submit(sub, ev.At)
			if submitted%dupEvery == 0 {
				submit(sub, ev.At) // the same frame delivered twice
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		seal() // Close seals the residual intake as the final epoch
		results := drain(t, s)

		if shed == 0 {
			t.Fatalf("seed %d: %d submissions at 20/s, burst 4 shed nothing", seed, submitted)
		}
		if len(results) != len(want) || len(want) < 2 {
			t.Fatalf("seed %d: service sealed %d epochs, model %d (want ≥2)", seed, len(results), len(want))
		}
		t.Logf("seed %d: %d submissions, %d shed, %d epochs", seed, submitted, shed, len(results))
		digests := make([]string, len(results))
		for e, res := range results {
			if res.Epoch != e {
				t.Fatalf("seed %d: result %d labelled epoch %d", seed, e, res.Epoch)
			}
			checkEpochOneShot(t, p, ring, pol, seed, res, want[e], opts)
			digests[e] = awardDigest(res.Epoch, res.Bidders, res.Result)
		}
		return digests
	}

	first := replay(5)
	if again := replay(5); !reflect.DeepEqual(first, again) {
		t.Fatalf("same-seed replays differ:\n %v\n %v", first, again)
	}
	if other := replay(6); reflect.DeepEqual(first, other) {
		t.Fatal("a different seed reproduced the same epochs")
	}
}

// TestServiceInjectedClock pins SubmitAt's explicit admission clock:
// submissions at one logical instant admit exactly the burst, and a later
// logical instant refills the bucket, independent of wall time.
func TestServiceInjectedClock(t *testing.T) {
	p, ring := epochFixture(t)
	s, err := New(Config{
		Params: p, Ring: ring, Seed: 13, Policy: core.DisguisePolicy{P0: 1},
		Admission: AdmissionConfig{Rate: 1, Burst: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	pop := population(p, 8, 91)
	admitted := 0
	for _, sub := range pop { // all at logical t=0: exactly the burst admits
		if err := s.SubmitAt(sub, 0); err == nil {
			admitted++
		}
	}
	if admitted != 5 {
		t.Fatalf("admitted %d at t=0, want burst of 5", admitted)
	}
	if err := s.SubmitAt(pop[7], 100); err != nil { // refill
		t.Fatalf("submit after logical refill: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	results := drain(t, s)
	if len(results) != 1 || len(results[0].Bidders) != 6 {
		t.Fatalf("results %+v, want one epoch of 6 bidders", results)
	}
}

// TestServicePipelinedIntake pins the intake/allocate overlap shape:
// epoch N+1's submissions are accepted while epoch N sits sealed in the
// queue, before any result has been consumed.
func TestServicePipelinedIntake(t *testing.T) {
	p, ring := epochFixture(t)
	s, err := New(Config{Params: p, Ring: ring, Seed: 5, Policy: core.DisguisePolicy{P0: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := population(p, 25, 21), population(p, 18, 22)
	submitAll(t, s, a, 1)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	// No result consumed yet — the next epoch's intake must still flow.
	submitAll(t, s, b, 2)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	results := drain(t, s)
	if len(results) != 2 {
		t.Fatalf("%d results, want 2", len(results))
	}
	if len(results[0].Bidders) != len(a) || len(results[1].Bidders) != len(b) {
		t.Fatalf("epoch sizes %d/%d, want %d/%d",
			len(results[0].Bidders), len(results[1].Bidders), len(a), len(b))
	}
}

// TestServiceLatestSubmissionWins pins resubmission semantics: a bidder
// resubmitting before the seal replaces its earlier entry, matching the
// transport's idempotent-resubmission contract.
func TestServiceLatestSubmissionWins(t *testing.T) {
	p, ring := epochFixture(t)
	pol := core.DisguisePolicy{P0: 1}
	s, err := New(Config{Params: p, Ring: ring, Seed: 3, Policy: pol})
	if err != nil {
		t.Fatal(err)
	}
	pop := population(p, 20, 31)
	submitAll(t, s, pop, 1)
	// Bidder 0 changes its mind before the seal.
	revised := pop[0]
	revised.Bids = append([]uint64(nil), revised.Bids...)
	revised.Bids[0] = p.BMax
	if err := s.Submit(revised); err != nil {
		t.Fatal(err)
	}
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	results := drain(t, s)
	if len(results) != 1 || len(results[0].Bidders) != len(pop) {
		t.Fatalf("resubmission changed the population: %+v", results)
	}
	pts := make([]geo.Point, len(pop))
	bids := make([][]uint64, len(pop))
	for i, sub := range pop {
		pts[i], bids[i] = sub.Point, sub.Bids
	}
	bids[0] = revised.Bids
	oneShot, err := round.Run(p, ring, round.Input{
		Points: pts, Bids: bids, Policy: pol,
		Rng: rand.New(rand.NewSource(EpochSeed(3, 0))),
	})
	if err != nil {
		t.Fatal(err)
	}
	sameOutcome(t, "latest-wins", results[0].Result, oneShot)
}

// TestServiceAdmission pins the service-level gate: over-rate
// submissions come back as ErrRateLimited with a positive retry hint,
// and the epoch runs over exactly the admitted set.
func TestServiceAdmission(t *testing.T) {
	p, ring := epochFixture(t)
	s, err := New(Config{
		Params: p, Ring: ring, Seed: 9, Policy: core.DisguisePolicy{P0: 1},
		Admission: AdmissionConfig{Rate: 1, Burst: 10},
		Telemetry: obs.Telemetry{Metrics: obs.NewRegistry()},
	})
	if err != nil {
		t.Fatal(err)
	}
	pop := population(p, 25, 41)
	admitted := 0
	for i, sub := range pop {
		err := s.SubmitAt(sub, float64(i)*0.001) // far above 1/s
		var rl *ErrRateLimited
		switch {
		case err == nil:
			admitted++
		case errors.As(err, &rl):
			if rl.RetryAfter <= 0 {
				t.Fatalf("rate-limited with non-positive hint %v", rl.RetryAfter)
			}
		default:
			t.Fatal(err)
		}
	}
	if admitted != 10 { // burst admits exactly 10 at ~t=0
		t.Fatalf("admitted %d, want 10", admitted)
	}
	if err := s.Close(); err != nil { // Close seals the residual intake
		t.Fatal(err)
	}
	results := drain(t, s)
	if len(results) != 1 || len(results[0].Bidders) != admitted {
		t.Fatalf("epoch ran over %d bidders, admitted %d", len(results[0].Bidders), admitted)
	}
	if got := s.Admission().rejected.Value(); got != uint64(len(pop)-admitted) {
		t.Fatalf("rejected counter %d, want %d", got, len(pop)-admitted)
	}
}

// TestServiceAccounting pins the ledgers end to end: quota totals count
// one debit per admitted submission, billing totals equal the epoch
// charges mapped to external bidder ids, and both persist by epoch close
// without per-op datastore traffic.
func TestServiceAccounting(t *testing.T) {
	p, ring := epochFixture(t)
	billStore, quotaStore := NewMemStore(), NewMemStore()
	bill, err := NewAccountant("billing", billStore, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	quota, err := NewAccountant("quota", quotaStore, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{
		Params: p, Ring: ring, Seed: 17, Policy: core.DisguisePolicy{P0: 1},
		Billing: bill, Quota: quota,
	})
	if err != nil {
		t.Fatal(err)
	}
	pop := population(p, 30, 51)
	submitAll(t, s, pop, 1)
	if err := s.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	results := drain(t, s)
	if len(results) != 1 {
		t.Fatalf("%d results, want 1", len(results))
	}
	res := results[0]

	wantBilling := map[int]uint64{}
	var wantRevenue uint64
	for i, as := range res.Result.Outcome.Assignments {
		if c := res.Result.Outcome.Charges[i]; c > 0 {
			wantBilling[res.Bidders[as.Bidder]] += c
			wantRevenue += c
		}
	}
	if wantRevenue == 0 {
		t.Fatal("fixture produced no revenue; billing path untested")
	}
	if got := billStore.Totals(); !reflect.DeepEqual(got, wantBilling) {
		t.Fatalf("billing totals %v, want %v", got, wantBilling)
	}
	for _, sub := range pop {
		if got := quotaStore.Total(sub.Bidder); got != 1 {
			t.Fatalf("quota for bidder %d = %d, want 1", sub.Bidder, got)
		}
	}
	if billStore.Writes() > uint64(len(wantBilling)) || quotaStore.Writes() > uint64(len(pop)) {
		t.Fatalf("epoch-close accounting wrote per-op: billing %d writes, quota %d writes",
			billStore.Writes(), quotaStore.Writes())
	}
}

// TestServiceIntervalSeal exercises the wall-clock cadence: a positive
// Interval seals the collecting epoch without an explicit Seal call.
func TestServiceIntervalSeal(t *testing.T) {
	p, ring := epochFixture(t)
	s, err := New(Config{
		Params: p, Ring: ring, Seed: 23, Policy: core.DisguisePolicy{P0: 1},
		Interval: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, s, population(p, 12, 61), 1)
	select {
	case res := <-s.Results():
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if len(res.Bidders) != 12 {
			t.Fatalf("interval epoch over %d bidders, want 12", len(res.Bidders))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("interval sealing never produced an epoch")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
}

// TestServiceRejectsAfterClose pins the shutdown contract.
func TestServiceRejectsAfterClose(t *testing.T) {
	p, ring := epochFixture(t)
	s, err := New(Config{Params: p, Ring: ring, Seed: 1, Policy: core.DisguisePolicy{P0: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	if err := s.Submit(population(p, 1, 71)[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if err := s.Seal(); !errors.Is(err, ErrClosed) {
		t.Fatalf("seal after close: %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
}

// TestEpochSeedDerivation pins that the per-epoch streams are
// deterministic and decorrelated.
func TestEpochSeedDerivation(t *testing.T) {
	seen := map[int64]int{}
	for e := 0; e < 100; e++ {
		s := EpochSeed(42, e)
		if s2 := EpochSeed(42, e); s2 != s {
			t.Fatalf("EpochSeed(42,%d) unstable: %d vs %d", e, s, s2)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("epochs %d and %d collide at seed %d", prev, e, s)
		}
		seen[s] = e
	}
	if EpochSeed(1, 0) == EpochSeed(2, 0) {
		t.Fatal("service seed does not reach the epoch stream")
	}
}
