package core

import (
	"fmt"
	"math/rand"

	"lppa/internal/mask"
	"lppa/internal/prefix"
)

// Params are the public protocol parameters every party agrees on before
// an auction round. Secret material (keys, rd, cr) lives in mask.KeyRing.
type Params struct {
	// Channels is the number k of auctioned channels.
	Channels int
	// Lambda is the interference half-range λ: users conflict when both
	// coordinate differences are strictly below 2λ (in grid units).
	Lambda uint64
	// MaxX and MaxY bound the coordinate domain (inclusive).
	MaxX, MaxY uint64
	// BMax is the public bid upper bound bmax.
	BMax uint64
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.Channels < 1 {
		return fmt.Errorf("core: channels %d must be ≥ 1", p.Channels)
	}
	if p.Lambda < 1 {
		return fmt.Errorf("core: lambda %d must be ≥ 1", p.Lambda)
	}
	if p.MaxX < 1 || p.MaxY < 1 {
		return fmt.Errorf("core: coordinate bounds (%d,%d) must be ≥ 1", p.MaxX, p.MaxY)
	}
	if p.BMax < 1 {
		return fmt.Errorf("core: bmax %d must be ≥ 1", p.BMax)
	}
	return nil
}

// CoordWidthX returns the prefix width for x coordinates.
func (p Params) CoordWidthX() int { return prefix.WidthFor(p.MaxX) }

// CoordWidthY returns the prefix width for y coordinates.
func (p Params) CoordWidthY() int { return prefix.WidthFor(p.MaxY) }

// ScaledMax returns the largest value in the blinded bid domain under a
// given key ring: cr·(bmax + rd + 1) − 1 (true bid bmax, offset rd,
// blinding slot cr−1).
func (p Params) ScaledMax(ring *mask.KeyRing) uint64 {
	return ring.CR*(p.BMax+ring.RD+1) - 1
}

// BidWidth returns the prefix width w of blinded bids.
func (p Params) BidWidth(ring *mask.KeyRing) int {
	return prefix.WidthFor(p.ScaledMax(ring))
}

// RangePadSize returns the padded cardinality 2w−2 of every bid range-
// prefix set, hiding the true cover size.
func (p Params) RangePadSize(ring *mask.KeyRing) int {
	return prefix.MaxCoverSize(p.BidWidth(ring))
}

// DisguisePolicy is a bidder's personal zero-disguise distribution
// (section IV.C.3): a zero bid stays zero with probability P0 and is
// disguised as value t ∈ [1, bmax] with probability p_t, where the p_t
// decay geometrically (p_1 ≥ p_2 ≥ … as the paper requires, so cheap
// disguises are likelier than auction-winning ones).
type DisguisePolicy struct {
	// P0 is the probability a zero bid remains zero. 1−P0 is the paper's
	// "zero-replace probability", the x axis of every Fig. 5 plot.
	P0 float64
	// Decay is the geometric ratio of successive p_t. Decay = 1 spreads
	// the disguise mass uniformly over [1, bmax] (the assumption of
	// Theorem 3); smaller values concentrate on low prices.
	Decay float64
}

// DefaultDisguise keeps zeros zero 70% of the time and decays disguise
// values gently.
func DefaultDisguise() DisguisePolicy { return DisguisePolicy{P0: 0.7, Decay: 0.97} }

// Validate checks the policy.
func (d DisguisePolicy) Validate() error {
	if d.P0 < 0 || d.P0 > 1 {
		return fmt.Errorf("core: p0 %f out of [0,1]", d.P0)
	}
	if d.P0 < 1 && (d.Decay <= 0 || d.Decay > 1) {
		return fmt.Errorf("core: decay %f out of (0,1]", d.Decay)
	}
	return nil
}

// DisguiseSampler draws disguise values from a fixed policy. Construct
// once per (policy, bmax) pair; sampling is O(log bmax).
type DisguiseSampler struct {
	p0  float64
	cum []float64 // cumulative weights of t = 1..bmax, normalized to 1
}

// NewDisguiseSampler precomputes the truncated geometric CDF.
func NewDisguiseSampler(d DisguisePolicy, bmax uint64) (*DisguiseSampler, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if bmax < 1 {
		return nil, fmt.Errorf("core: bmax %d must be ≥ 1", bmax)
	}
	s := &DisguiseSampler{p0: d.P0}
	if d.P0 >= 1 {
		return s, nil
	}
	s.cum = make([]float64, bmax)
	w := 1.0
	total := 0.0
	for t := range s.cum {
		total += w
		s.cum[t] = total
		w *= d.Decay
	}
	for t := range s.cum {
		s.cum[t] /= total
	}
	return s, nil
}

// Sample returns (t, true) when the zero bid should be disguised as value
// t ∈ [1, bmax], or (0, false) when it stays zero.
func (s *DisguiseSampler) Sample(rng *rand.Rand) (uint64, bool) {
	if rng.Float64() < s.p0 || s.cum == nil {
		return 0, false
	}
	u := rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, len(s.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if s.cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return uint64(lo + 1), true
}
