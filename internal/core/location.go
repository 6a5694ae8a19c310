package core

import (
	"fmt"
	"sync"

	"lppa/internal/geo"
	"lppa/internal/mask"
)

// LocationSubmission is what a bidder reveals about its position: masked
// prefix families of its coordinates and masked prefix covers of its
// interference ranges (section IV.A). The auctioneer can evaluate the
// pairwise conflict predicate and nothing else.
type LocationSubmission struct {
	XFamily, YFamily mask.Set // H_g0(G(loc_x)), H_g0(G(loc_y))
	XRange, YRange   mask.Set // H_g0(Q([loc_x ± (2λ−1)])), same for y
}

// NewLocationSubmission builds the masked location submission for a bidder
// at point pt. The interference predicate is strict (|Δ| < 2λ), so with
// integer coordinates the submitted range is [loc − (2λ−1), loc + (2λ−1)],
// clamped to the coordinate domain.
func NewLocationSubmission(params Params, ring *mask.KeyRing, pt geo.Point) (*LocationSubmission, error) {
	enc, err := NewLocationEncoder(params, ring)
	if err != nil {
		return nil, err
	}
	return enc.Encode(pt)
}

// LocationEncoder builds location submissions for one bidder after another
// on one g0 masker. It is not safe for concurrent use. From its second
// Encode on the masker keeps a digest table over the coordinate domain
// (mask.Masker.Memoize), so each coordinate prefix is hashed once per
// encoder rather than once per bidder; the table is key-equivalent and
// dies with the encoder.
type LocationEncoder struct {
	params  Params
	masker  *mask.Masker
	used    bool
	scratch prefixScratch
}

// NewLocationEncoder returns a location encoder under the ring's g0.
func NewLocationEncoder(params Params, ring *mask.KeyRing) (*LocationEncoder, error) {
	masker, err := mask.NewMasker(ring.G0)
	if err != nil {
		return nil, fmt.Errorf("core: location masker: %w", err)
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &LocationEncoder{params: params, masker: masker}, nil
}

// CheckPoint reports whether pt lies in the coordinate domain — the one
// way a valid encoder can fail to mask a location, so callers can screen
// a population's points before encoding them in bulk.
func (p Params) CheckPoint(pt geo.Point) error {
	if pt.X > p.MaxX || pt.Y > p.MaxY {
		return fmt.Errorf("core: point (%d,%d) outside domain (%d,%d)", pt.X, pt.Y, p.MaxX, p.MaxY)
	}
	return nil
}

// Encode builds the masked location submission for a bidder at pt, exactly
// as NewLocationSubmission does.
func (e *LocationEncoder) Encode(pt geo.Point) (*LocationSubmission, error) {
	p := e.params
	if err := p.CheckPoint(pt); err != nil {
		return nil, err
	}
	delta := 2*p.Lambda - 1
	wx, wy := p.CoordWidthX(), p.CoordWidthY()
	if e.used {
		e.masker.Memoize(max(wx, wy))
	}
	e.used = true

	xlo, xhi := geo.ClampRange(pt.X, delta, p.MaxX)
	ylo, yhi := geo.ClampRange(pt.Y, delta, p.MaxY)

	return &LocationSubmission{
		XFamily: e.masker.MaskSet(e.scratch.family(pt.X, wx)),
		YFamily: e.masker.MaskSet(e.scratch.family(pt.Y, wy)),
		XRange:  e.masker.MaskSet(e.scratch.cover(xlo, xhi, wx)),
		YRange:  e.masker.MaskSet(e.scratch.cover(ylo, yhi, wy)),
	}, nil
}

// NewLocationSubmissions builds the masked location submissions for a
// whole population, sharding bidders across at most workers goroutines
// (≤ 1 runs serially). Location masking draws no randomness, so the result
// is identical to calling NewLocationSubmission per point in order, for
// every worker count. Each worker reuses one LocationEncoder across its
// bidders.
func NewLocationSubmissions(params Params, ring *mask.KeyRing, pts []geo.Point, workers int) ([]*LocationSubmission, error) {
	enc, err := NewLocationEncoder(params, ring)
	if err != nil {
		return nil, err
	}
	// Duplicate points share one submission: masking is deterministic under
	// the shared key, so equal points produce byte-identical submissions,
	// and submissions are immutable once built. first[d] remembers the
	// earliest bidder at each distinct point — distinct points are visited
	// in first-appearance order, so the reported bidder on failure is the
	// same one the per-bidder sweep would have blamed.
	uniq := make(map[geo.Point]int, len(pts))
	upts := make([]geo.Point, 0, len(pts))
	first := make([]int, 0, len(pts))
	slot := make([]int, len(pts))
	for i, pt := range pts {
		d, ok := uniq[pt]
		if !ok {
			d = len(upts)
			uniq[pt] = d
			upts = append(upts, pt)
			first = append(first, i)
		}
		slot[i] = d
	}

	usubs := make([]*LocationSubmission, len(upts))
	workers = mask.Workers(workers, len(upts))
	if workers <= 1 {
		for d, pt := range upts {
			if usubs[d], err = enc.Encode(pt); err != nil {
				return nil, fmt.Errorf("core: bidder %d location: %w", first[d], err)
			}
		}
	} else {
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				local := &LocationEncoder{params: params, masker: enc.masker.Clone()}
				for d := w; d < len(upts); d += workers {
					sub, err := local.Encode(upts[d])
					if err != nil {
						errs[w] = fmt.Errorf("core: bidder %d location: %w", first[d], err)
						return
					}
					usubs[d] = sub
				}
			}(w)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	out := make([]*LocationSubmission, len(pts))
	for i, d := range slot {
		out[i] = usubs[d]
	}
	return out, nil
}

// Conflicts evaluates the masked conflict predicate between two
// submissions: i's coordinate families must intersect j's range covers on
// both axes (section IV.A step iv). The predicate is symmetric because the
// underlying intervals share the same half-width.
func Conflicts(a, b *LocationSubmission) bool {
	return a.XFamily.Intersects(b.XRange) && a.YFamily.Intersects(b.YRange)
}
