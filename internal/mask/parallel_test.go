package mask

import (
	"sync"
	"testing"
)

// TestMaskZeroAlloc pins the tentpole property: the steady-state Mask path
// performs no heap allocation (resettable HMAC state, reused buffers;
// `make alloc-guard`).
func TestMaskZeroAlloc(t *testing.T) {
	m, err := NewMasker(testKey(9))
	if err != nil {
		t.Fatal(err)
	}
	m.Mask(1) // prime the HMAC state (first Sum may cache marshaled state)
	var sink Digest
	allocs := testing.AllocsPerRun(1000, func() {
		sink = m.Mask(12345)
	})
	if allocs != 0 {
		t.Errorf("Mask allocates %.1f times per op, want 0", allocs)
	}
	_ = sink
}

// TestCloneMatchesOriginal checks a clone digests identically and is
// independent: concurrent clones must reproduce the serial digests.
func TestCloneMatchesOriginal(t *testing.T) {
	m, err := NewMasker(testKey(7))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Digest, 256)
	for i := range want {
		want[i] = m.Mask(uint64(i) * 31)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]int, goroutines) // index of first mismatch+1, per goroutine
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := m.Clone()
			for i := range want {
				if local.Mask(uint64(i)*31) != want[i] {
					errs[g] = i + 1
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != 0 {
			t.Errorf("goroutine %d: clone digest mismatch at input %d", g, e-1)
		}
	}
}

// TestAppendDigestsMatchesDigests checks the allocation-lean collector
// returns the same members as Digests.
func TestAppendDigestsMatchesDigests(t *testing.T) {
	m, err := NewMasker(testKey(5))
	if err != nil {
		t.Fatal(err)
	}
	s := m.MaskSet([]uint64{1, 2, 3, 4, 5})
	prefixSlice := []Digest{m.Mask(99)}
	got := s.AppendDigests(prefixSlice)
	if len(got) != 6 {
		t.Fatalf("appended length %d, want 6", len(got))
	}
	if got[0] != m.Mask(99) {
		t.Error("AppendDigests clobbered existing dst prefix")
	}
	seen := map[Digest]bool{}
	for _, d := range got[1:] {
		seen[d] = true
	}
	for _, d := range s.Digests() {
		if !seen[d] {
			t.Errorf("digest %s missing from AppendDigests output", d)
		}
	}
}

func TestWorkersNormalization(t *testing.T) {
	cases := []struct{ req, items, wantMax, wantMin int }{
		{0, 100, 1 << 30, 1}, // GOMAXPROCS-dependent, just bounded below
		{-3, 10, 10, 1},
		{5, 2, 2, 2},
		{5, 0, 1, 1},
		{3, 100, 3, 3},
	}
	for _, c := range cases {
		got := Workers(c.req, c.items)
		if got < c.wantMin || got > c.wantMax {
			t.Errorf("Workers(%d, %d) = %d, want in [%d, %d]", c.req, c.items, got, c.wantMin, c.wantMax)
		}
	}
}
