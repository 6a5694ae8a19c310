package sim

import (
	"fmt"
	"math/rand"
	"sort"
)

// Arrival/churn model for the benchmark's service-open workload
// (bench/service.go): a seeded, fully deterministic schedule of bidder
// events over logical time. Its caller replays the schedule through the
// epochal service's explicit clock (SubmitAt/Withdraw), so the admit/shed
// sequence — and therefore every sealed epoch — is a pure function of
// (config, seed). Wall time never enters the schedule.

// EventKind classifies one arrival-schedule entry.
type EventKind int

const (
	// EventJoin is a bidder's first submission of the run.
	EventJoin EventKind = iota
	// EventResubmit replaces the bidder's pending entry with fresh bids
	// (latest-wins, the transport's idempotent-resubmission shape).
	EventResubmit
	// EventDepart withdraws the bidder's pending entry from the epoch
	// currently collecting — churn leaving mid-epoch.
	EventDepart
)

// String names the kind for reports and test failures.
func (k EventKind) String() string {
	switch k {
	case EventJoin:
		return "join"
	case EventResubmit:
		return "resubmit"
	case EventDepart:
		return "depart"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// ArrivalEvent is one scheduled action: bidder Bidder does Kind at At
// logical seconds from the run start.
type ArrivalEvent struct {
	At     float64
	Bidder int
	Kind   EventKind
}

// ArrivalConfig shapes a schedule. The zero value is invalid;
// BuildSchedule runs Validate first.
type ArrivalConfig struct {
	// Process selects the inter-arrival law. The one law is "poisson":
	// exponential gaps at Rate arrivals/sec.
	Process string
	// Rate is the mean arrival rate in bidders/sec. Zero derives the rate
	// that lands the whole population inside Horizon.
	Rate float64
	// ResubmitFrac is the fraction of bidders that resubmit fresh bids at
	// a later point of the horizon; DepartFrac the fraction that withdraw
	// after joining. Both in [0,1]; a bidder can draw both (it departs,
	// then its resubmission re-joins it, or vice versa — order follows the
	// drawn times, which is the point of churn).
	ResubmitFrac float64
	DepartFrac   float64
	// Horizon is the schedule length in logical seconds.
	Horizon float64
}

// Validate rejects unusable shapes with a caller-facing message.
func (c ArrivalConfig) Validate() error {
	if c.Process != "poisson" {
		return fmt.Errorf("sim: unknown arrival process %q (want poisson)", c.Process)
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("sim: arrival horizon %v, need positive", c.Horizon)
	}
	if c.Rate < 0 {
		return fmt.Errorf("sim: arrival rate %v, need non-negative", c.Rate)
	}
	if c.ResubmitFrac < 0 || c.ResubmitFrac > 1 {
		return fmt.Errorf("sim: resubmit fraction %v outside [0,1]", c.ResubmitFrac)
	}
	if c.DepartFrac < 0 || c.DepartFrac > 1 {
		return fmt.Errorf("sim: depart fraction %v outside [0,1]", c.DepartFrac)
	}
	return nil
}

// BuildSchedule lays out the deterministic event schedule for n bidders:
// one join per bidder placed by the Poisson process (join times past the
// horizon clamp to its final instant), plus churn events for the drawn
// fractions. Events are sorted by (time, bidder, kind), so equal
// timestamps — every clamped join — replay in one fixed order. Same
// config, same n, same rng seed: byte-identical schedule.
func BuildSchedule(cfg ArrivalConfig, n int, rng *rand.Rand) ([]ArrivalEvent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n <= 0 {
		return nil, fmt.Errorf("sim: schedule for %d bidders, need positive", n)
	}
	events := make([]ArrivalEvent, 0, n)
	joins := make([]float64, n)
	rate := cfg.Rate
	if rate == 0 {
		rate = float64(n) / cfg.Horizon
	}
	t := 0.0
	for i := 0; i < n; i++ {
		t += rng.ExpFloat64() / rate
		joins[i] = clampTime(t, cfg.Horizon)
	}
	for i, at := range joins {
		events = append(events, ArrivalEvent{At: at, Bidder: i, Kind: EventJoin})
	}
	// Churn draws happen in bidder order with a fixed per-bidder draw
	// count, so the rng stream — and every later draw — is independent of
	// which fractions are enabled.
	for i := 0; i < n; i++ {
		resubP, resubFrac := rng.Float64(), rng.Float64()
		departP, departFrac := rng.Float64(), rng.Float64()
		if resubP < cfg.ResubmitFrac {
			events = append(events, ArrivalEvent{
				At:     churnTime(joins[i], cfg.Horizon, resubFrac),
				Bidder: i,
				Kind:   EventResubmit,
			})
		}
		if departP < cfg.DepartFrac {
			events = append(events, ArrivalEvent{
				At:     churnTime(joins[i], cfg.Horizon, departFrac),
				Bidder: i,
				Kind:   EventDepart,
			})
		}
	}
	sort.Slice(events, func(a, b int) bool {
		if events[a].At != events[b].At {
			return events[a].At < events[b].At
		}
		if events[a].Bidder != events[b].Bidder {
			return events[a].Bidder < events[b].Bidder
		}
		return events[a].Kind < events[b].Kind
	})
	return events, nil
}

// clampTime keeps an event inside the half-open horizon.
func clampTime(t, horizon float64) float64 {
	if t >= horizon {
		// Just inside the final instant, so the event still replays.
		return horizon * (1 - 1e-9)
	}
	return t
}

// churnTime places a churn event uniformly in (join, horizon).
func churnTime(join, horizon, frac float64) float64 {
	return clampTime(join+frac*(horizon-join), horizon)
}
