package obs

import "sync/atomic"

// sampler is a tracer's deterministic 1-in-K schedule. Full tracing at
// every epoch of a long-lived service is unaffordable at scale, so a
// sampled tracer opens a root for one StartTrace call in K and leaves
// the rest on the allocation-free untraced path. The schedule is a pure
// function of (seed, K, call index): the same seed and K pick the same
// runs every time, so a sampled trace set is replayable bit for bit
// alongside the deterministic awards.
type sampler struct {
	k      uint64
	offset uint64
	idx    atomic.Uint64
	taken  atomic.Uint64
}

// NewSampledTracer returns a tracer whose StartTrace opens a root for one
// call in every k and returns nil for the rest; each root it opens
// carries its call index as the sample_index attribute. The seed rotates
// which residue class is traced (offset = splitmix64(seed) mod k), so two
// services with different seeds don't all trace the same epochs; k <= 1
// traces every call.
func NewSampledTracer(proc string, seed int64, k int) *Tracer {
	if k < 1 {
		k = 1
	}
	t := NewTracer(proc)
	t.core.sample = &sampler{k: uint64(k), offset: splitmix64(uint64(seed)) % uint64(k)}
	return t
}

// splitmix64 is the SplitMix64 finalizer: a cheap, well-mixed 64-bit
// permutation (same construction the epoch scheduler uses for per-epoch
// seeds).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// next consumes the next call index and reports whether it is sampled.
// The unsampled path is one atomic add: no allocation, no clock read.
func (s *sampler) next() (index uint64, sampled bool) {
	idx := s.idx.Add(1) - 1
	if idx%s.k != s.offset {
		return idx, false
	}
	s.taken.Add(1)
	return idx, true
}

// Every returns the sampling period K of a tracer from NewSampledTracer,
// and 0 for any other tracer, nil included.
func (t *Tracer) Every() int {
	if t == nil || t.core.sample == nil {
		return 0
	}
	return int(t.core.sample.k)
}

// Sampled returns how many roots a sampled tracer's schedule has opened
// so far (0 for any other tracer, nil included).
func (t *Tracer) Sampled() uint64 {
	if t == nil || t.core.sample == nil {
		return 0
	}
	return t.core.sample.taken.Load()
}
