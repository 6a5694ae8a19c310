package sim

import (
	"fmt"
	"math/rand"

	"lppa/internal/bidder"
	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/mask"
	"lppa/internal/round"
)

// MetricsRound runs one private round under cfg — honoring cfg.Workers and
// reporting through cfg.Telemetry — and returns the result. It backs
// `lppa-sim -experiment round` and `make metrics-snapshot`: a single
// instrumented round whose registry snapshot shows the per-phase and
// per-layer cost profile at population size cfg.Bidders.
func MetricsRound(area *dataset.Area, cfg Fig5Config, seed int64) (*round.Result, error) {
	sc, err := NewScenario(area, min(cfg.Channels, area.NumChannels()), cfg.Lambda)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	var pop *bidder.Population
	if cfg.Density != nil {
		cells := cfg.Density.Cells(area.Grid, cfg.Bidders, rng)
		pop, err = bidder.NewPopulationAt(area, cells, sc.BidCfg, rng)
	} else {
		pop, err = bidder.NewPopulation(area, cfg.Bidders, sc.BidCfg, rng)
	}
	if err != nil {
		return nil, err
	}
	bids := sc.TruncatedBids(pop)
	ring, err := mask.DeriveKeyRing([]byte(fmt.Sprintf("metrics-round-%d", seed)), sc.Params.Channels, cfg.RD, cfg.CR)
	if err != nil {
		return nil, err
	}
	zr := 0.3
	if len(cfg.ZeroReplace) > 0 {
		zr = cfg.ZeroReplace[0]
	}
	policy := core.DisguisePolicy{P0: 1 - zr, Decay: cfg.Decay}
	return cfg.runPrivate(sc.Params, ring, Points(pop), bids, policy, rand.New(rand.NewSource(seed+1)))
}
