package sim

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBuildScheduleDeterministic(t *testing.T) {
	cfg := ArrivalConfig{Process: "poisson", Horizon: 10, ResubmitFrac: 0.3, DepartFrac: 0.2}
	a, err := BuildSchedule(cfg, 200, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSchedule(cfg, 200, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c, _ := BuildSchedule(cfg, 200, rand.New(rand.NewSource(8)))
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestBuildScheduleShapes(t *testing.T) {
	const n = 120
	cfg := ArrivalConfig{Process: "poisson", Horizon: 12, ResubmitFrac: 0.5, DepartFrac: 0.25}
	events, err := BuildSchedule(cfg, n, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	joins, resubmits, departs := 0, 0, 0
	joined := map[int]bool{}
	prev := -1.0
	for _, ev := range events {
		if ev.At < prev {
			t.Fatalf("events out of order at %v after %v", ev.At, prev)
		}
		prev = ev.At
		if ev.At < 0 || ev.At >= cfg.Horizon {
			t.Fatalf("event time %v outside [0,%v)", ev.At, cfg.Horizon)
		}
		switch ev.Kind {
		case EventJoin:
			joins++
			joined[ev.Bidder] = true
		case EventResubmit:
			resubmits++
		case EventDepart:
			departs++
		}
	}
	if joins != n || len(joined) != n {
		t.Fatalf("%d joins over %d bidders, want %d each", joins, len(joined), n)
	}
	// Churn fractions are probabilistic but far from degenerate at n=120.
	if resubmits == 0 || departs == 0 {
		t.Fatalf("churn missing (resubmits=%d departs=%d)", resubmits, departs)
	}
}

func TestBuildScheduleValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []ArrivalConfig{
		{Process: "meteor", Horizon: 1},
		{Process: "poisson", Horizon: 0},
		{Process: "poisson", Horizon: 1, Rate: -2},
		{Process: "burst", Horizon: 1},
		{Process: "poisson", Horizon: 1, ResubmitFrac: 1.5},
		{Process: "poisson", Horizon: 1, DepartFrac: -0.1},
	}
	for i, cfg := range bad {
		if _, err := BuildSchedule(cfg, 10, rng); err == nil {
			t.Errorf("config %d (%+v) accepted, want error", i, cfg)
		}
	}
	if _, err := BuildSchedule(ArrivalConfig{Process: "poisson", Horizon: 1}, 0, rng); err == nil {
		t.Error("zero population accepted")
	}
}
