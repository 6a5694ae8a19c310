package obs

import (
	"sort"
	"time"
)

// Exact nearest-rank percentiles over a small sample set. The ops
// plane's burn-rate monitor rebuilds one LatencySummary from each
// phase's slow window (96 samples by default) to answer p50/p95/p99 for
// /statusz; at that size keeping every sample beats a sketch: the
// percentiles are exact and the memory is noise.

// LatencySummary accumulates duration samples for one phase.
// Not safe for concurrent use.
type LatencySummary struct {
	samples []time.Duration
	sorted  bool
}

// Observe folds one duration into the summary.
func (s *LatencySummary) Observe(d time.Duration) {
	s.samples = append(s.samples, d)
	s.sorted = len(s.samples) == 1
}

// Quantile reports the nearest-rank q-quantile (q in [0,1]) over the
// samples observed so far: the smallest sample such that at least q·n
// samples are ≤ it. Empty summaries report 0; q outside [0,1] clamps.
func (s *LatencySummary) Quantile(q float64) time.Duration {
	n := len(s.samples)
	if n == 0 {
		return 0
	}
	if !s.sorted {
		sort.Slice(s.samples, func(i, j int) bool { return s.samples[i] < s.samples[j] })
		s.sorted = true
	}
	if q <= 0 {
		return s.samples[0]
	}
	if q >= 1 {
		return s.samples[n-1]
	}
	// Nearest rank: ceil(q*n), 1-based.
	rank := int(q * float64(n))
	if float64(rank) < q*float64(n) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s.samples[rank-1]
}
