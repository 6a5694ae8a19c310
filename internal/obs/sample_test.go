package obs

import (
	"strconv"
	"testing"
)

// sampleIndex returns a sampled root's sample_index attribute.
func sampleIndex(t *testing.T, s *Span) string {
	t.Helper()
	for _, a := range s.Attrs {
		if a.Key == "sample_index" {
			return a.Value
		}
	}
	t.Fatalf("sampled root %q has no sample_index", s.Name)
	return ""
}

// TestTraceSamplerDeterministic pins the replay contract: the sampled
// index set is a pure function of (seed, K), so two sampled tracers built
// alike agree call for call.
func TestTraceSamplerDeterministic(t *testing.T) {
	const rounds = 200
	pick := func(seed int64, k int) []uint64 {
		tr := NewSampledTracer("svc", seed, k)
		var out []uint64
		for i := 0; i < rounds; i++ {
			if root := tr.StartTrace("round"); root != nil {
				if got := sampleIndex(t, root); got != strconv.Itoa(i) {
					t.Fatalf("root on call %d carries sample_index %s", i, got)
				}
				out = append(out, uint64(i))
			}
		}
		if got := tr.Sampled(); got != uint64(len(out)) {
			t.Fatalf("Sampled() = %d, want %d", got, len(out))
		}
		if tr.Every() != k {
			t.Fatalf("Every() = %d", tr.Every())
		}
		return out
	}
	a, b := pick(42, 7), pick(42, 7)
	if len(a) == 0 {
		t.Fatal("sampler with k=7 over 200 rounds picked nothing")
	}
	if len(a) != len(b) {
		t.Fatalf("two runs picked %d vs %d rounds", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("picked sets diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
	// Exactly one residue class mod k is sampled.
	for i := 1; i < len(a); i++ {
		if a[i]-a[i-1] != 7 {
			t.Fatalf("sampled indices not k apart: %v", a[:i+1])
		}
	}
}

// TestTraceSamplerSeedRotatesOffset pins that the seed actually varies
// which residue class is traced — a fleet of services with distinct seeds
// must not all trace the same epochs.
func TestTraceSamplerSeedRotatesOffset(t *testing.T) {
	const k = 8
	offsets := map[uint64]bool{}
	for seed := int64(0); seed < 16; seed++ {
		tr := NewSampledTracer("svc", seed, k)
		for idx := uint64(0); idx < k; idx++ {
			if tr.StartTrace("round") != nil {
				offsets[idx] = true
			}
		}
	}
	if len(offsets) < 2 {
		t.Fatalf("16 seeds landed on %d distinct offsets, want spread", len(offsets))
	}
}

// TestTraceSamplerEveryRound: k <= 1 samples everything.
func TestTraceSamplerEveryRound(t *testing.T) {
	for _, k := range []int{1, 0, -3} {
		tr := NewSampledTracer("svc", 9, k)
		if tr.Every() != 1 {
			t.Fatalf("k=%d: Every() = %d, want 1", k, tr.Every())
		}
		for i := 0; i < 5; i++ {
			if tr.StartTrace("round") == nil {
				t.Fatalf("k=%d: round %d not sampled", k, i)
			}
		}
		if tr.Sampled() != 5 {
			t.Fatalf("k=%d: Sampled() = %d, want 5", k, tr.Sampled())
		}
	}
}

// TestNilTraceSamplerIsInert: the nil tracer never samples and never
// panics, per the package's nil no-op contract, and a tracer that does
// not sample reports no schedule.
func TestNilTraceSamplerIsInert(t *testing.T) {
	var tr *Tracer
	if tr.StartTrace("round") != nil || tr.Every() != 0 || tr.Sampled() != 0 {
		t.Fatal("nil tracer sampled")
	}
	plain := NewTracer("svc")
	if plain.StartTrace("round") == nil || plain.Every() != 0 || plain.Sampled() != 0 {
		t.Fatal("unsampled tracer reports a sampling schedule")
	}
}

// TestTraceSamplerUnsampledAllocationFree pins the skipped-path cost: a
// StartTrace the schedule skips is one atomic add, no allocation.
func TestTraceSamplerUnsampledAllocationFree(t *testing.T) {
	tr := NewSampledTracer("svc", 1, 1<<20) // offset is far past the calls below
	allocs := testing.AllocsPerRun(100, func() {
		if tr.StartTrace("round") != nil {
			t.Fatal("sampled inside the unsampled-path measurement")
		}
	})
	if allocs != 0 {
		t.Fatalf("unsampled StartTrace allocates %.0f, want 0", allocs)
	}
}
