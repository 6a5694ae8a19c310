package round

import (
	"fmt"
	"strconv"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
)

// WithShards re-tiles the auctioneer (DESIGN.md §5g). Without it the
// auctioneer runs as one implicit tile holding every bidder; with it a
// planner groups bidders into geographic tiles by a masked coarse-tile
// digest (keyed off the ring like every other submission digest, so the
// auctioneer learns nothing finer than the tile), and per-tile conflict
// graphs and rank orders are built independently — in parallel under
// WithWorkers — and merged bit-identically. k sizes the tile grid at about
// k tiles (⌈√k⌉ per axis); the planner only materializes tiles somebody
// lives in, so the effective shard count is min(k, occupied tiles). The
// planner's tiles are the anonymity sets the privacy audit and the ops
// plane report.
//
// Results are bit-identical to the same call without the option for every
// k ≥ 1 — the tiling changes how the work is split, never the answer —
// which the equivalence grid pins. Composes with every other option.
func WithShards(k int) Option {
	return func(c *runConfig) error {
		if k < 1 {
			return fmt.Errorf("round: shard count %d, need at least 1", k)
		}
		c.shards = k
		return nil
	}
}

// planShards assigns each bidder a home tile by masked coarse-tile digest
// and registers it as a border-band visitor of every other tile its
// interference square (half-side 2λ−1, clamped like the location range
// queries) overlaps — at most three, since the tile side is a multiple of
// 2λ. The auctioneer-side plan is keyed purely by digest equality: the
// planner never stores tile coordinates next to bidders, and tiles nobody
// lives in are never materialized (a visitor digest matching no resident
// digest carries no conflict partner, so it is dropped).
func planShards(params core.Params, ring *mask.KeyRing, pts []geo.Point, shards int) (*core.ShardPlan, error) {
	return planShardsWith(nil, params, ring, pts, shards)
}

// planShardsWith is planShards with the grid and masker drawn from an
// EpochState memo when one is supplied (nil state builds them fresh) —
// the plan itself is always rebuilt, since it depends on the population.
func planShardsWith(st *EpochState, params core.Params, ring *mask.KeyRing, pts []geo.Point, shards int) (*core.ShardPlan, error) {
	tg, masker, err := st.planner(params, ring, shards)
	if err != nil {
		return nil, err
	}
	delta := 2*params.Lambda - 1

	plan := &core.ShardPlan{Home: make([]int, len(pts))}
	slot := make(map[mask.Digest]int)
	for i, p := range pts {
		tx, ty := tg.TileOf(p)
		d := masker.Mask(tg.ID(tx, ty))
		s, ok := slot[d]
		if !ok {
			s = len(plan.Tiles)
			slot[d] = s
			plan.Tiles = append(plan.Tiles, core.ShardTile{})
		}
		plan.Tiles[s].Residents = append(plan.Tiles[s].Residents, i)
		plan.Home[i] = s
	}
	for i, p := range pts {
		for _, id := range tg.Touched(p, delta)[1:] {
			if s, ok := slot[masker.Mask(id)]; ok {
				plan.Tiles[s].Visitors = append(plan.Tiles[s].Visitors, i)
			}
		}
	}
	return plan, nil
}

// shardSpans hangs a per-shard tracer span off the current phase for every
// tile build. The hook runs on executor goroutines; StartSpan and Span
// methods are safe for that.
func shardSpans(ph *phaser) func(shard, residents, visitors int) func(edges int) {
	return func(shard, residents, visitors int) func(edges int) {
		sp := ph.tracer.StartSpan("shard_build", ph.cur.Context(),
			obs.L("shard", strconv.Itoa(shard)),
			obs.L("residents", strconv.Itoa(residents)),
			obs.L("visitors", strconv.Itoa(visitors)))
		return func(edges int) {
			sp.Annotate("edges", strconv.Itoa(edges))
			sp.End()
		}
	}
}
