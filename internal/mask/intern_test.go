package mask

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// digestsFrom masks vs under a fixed test key (so equal values collide
// across sets, giving intersections something to find).
func internTestMasker(t *testing.T) *Masker {
	t.Helper()
	m, err := NewMasker(make(Key, 32))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInternSetAgreesWithSet is the representation anchor: for random
// digest collections, every IntSet operation must agree with the map-based
// Set it was interned from — Len, Contains (members and non-members), and
// Intersects against every other set in the batch.
func TestInternSetAgreesWithSet(t *testing.T) {
	m := internTestMasker(t)
	// Values drawn from a small domain so sets genuinely overlap.
	prop := func(raw [][]uint8, probes []uint8) bool {
		dict := NewDict()
		sets := make([]Set, len(raw))
		ints := make([]IntSet, len(raw))
		for i, vs := range raw {
			nums := make([]uint64, len(vs))
			for j, v := range vs {
				nums[j] = uint64(v % 64)
			}
			sets[i] = m.MaskSet(nums)
			ints[i] = dict.InternSet(sets[i])
		}
		for i := range sets {
			if ints[i].Len() != sets[i].Len() {
				return false
			}
			for _, dg := range sets[i].Digests() {
				id, ok := dict.Lookup(dg)
				if !ok || !ints[i].Contains(id) {
					return false
				}
			}
			for _, p := range probes {
				dg := m.Mask(uint64(p % 64))
				want := sets[i].Contains(dg)
				got := false
				if id, ok := dict.Lookup(dg); ok {
					got = ints[i].Contains(id)
				}
				if got != want {
					return false
				}
			}
			for j := range sets {
				if ints[i].Intersects(ints[j]) != sets[i].Intersects(sets[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestInternSetAgreesWithPaddedCovers repeats the agreement check on the
// shape the protocol actually produces: masked range covers padded with
// random digests (PadTo), intersected against masked families.
func TestInternSetAgreesWithPaddedCovers(t *testing.T) {
	m := internTestMasker(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		dict := NewDict()
		n := 1 + rng.Intn(12)
		sets := make([]Set, 2*n)
		ints := make([]IntSet, 2*n)
		for i := 0; i < n; i++ {
			famVals := make([]uint64, 1+rng.Intn(10))
			for j := range famVals {
				famVals[j] = uint64(rng.Intn(48))
			}
			fam := m.MaskSet(famVals)
			cover := m.MaskSet([]uint64{uint64(rng.Intn(48)), uint64(rng.Intn(48))})
			cover.PadTo(18, rng) // the paper's 2w−2 padding, random digests
			sets[2*i], sets[2*i+1] = fam, cover
			ints[2*i] = dict.InternSet(fam)
			ints[2*i+1] = dict.InternSet(cover)
		}
		for i := range sets {
			for j := range sets {
				if got, want := ints[i].Intersects(ints[j]), sets[i].Intersects(sets[j]); got != want {
					t.Fatalf("trial %d: interned Intersects(%d,%d)=%v, map says %v", trial, i, j, got, want)
				}
			}
		}
	}
}

// TestInternDeterministicIDs pins Dict semantics: re-interning the same
// digest returns the same ID, distinct digests get distinct dense IDs.
func TestInternDeterministicIDs(t *testing.T) {
	m := internTestMasker(t)
	dict := NewDict()
	a, b := m.Mask(1), m.Mask(2)
	ida, idb := dict.Intern(a), dict.Intern(b)
	if ida == idb {
		t.Fatal("distinct digests share an ID")
	}
	if got := dict.Intern(a); got != ida {
		t.Fatalf("re-interning changed ID: %d then %d", ida, got)
	}
	if dict.Len() != 2 {
		t.Fatalf("dict has %d entries, want 2", dict.Len())
	}
	if _, ok := dict.Lookup(m.Mask(3)); ok {
		t.Fatal("Lookup invented an ID for a digest never interned")
	}
}

// TestIntSetSortedInvariant checks InternSet produces strictly ascending
// IDs regardless of map iteration order.
func TestIntSetSortedInvariant(t *testing.T) {
	m := internTestMasker(t)
	dict := NewDict()
	vals := make([]uint64, 64)
	for i := range vals {
		vals[i] = uint64(i)
	}
	s := dict.InternSet(m.MaskSet(vals))
	if !sort.SliceIsSorted(s.ids, func(i, j int) bool { return s.ids[i] < s.ids[j] }) {
		t.Fatal("interned IDs not sorted")
	}
	for i := 1; i < len(s.ids); i++ {
		if s.ids[i] == s.ids[i-1] {
			t.Fatal("duplicate ID in interned set")
		}
	}
}

// TestIntSetGallopPath forces the skewed-size galloping branch (one set
// ≥ gallopRatio× the other) on both hit and miss outcomes, including the
// first/last element corners the probe loop must not skip.
func TestIntSetGallopPath(t *testing.T) {
	m := internTestMasker(t)
	large := make([]uint64, 300)
	for i := range large {
		large[i] = uint64(2 * i) // evens
	}
	dict := NewDict()
	big := dict.InternSet(m.MaskSet(large))
	cases := []struct {
		name string
		vals []uint64
		want bool
	}{
		{"miss-odds", []uint64{1, 101, 599}, false},
		{"hit-first", []uint64{0, 9999995, 9999997}, true},
		{"hit-last", []uint64{9999991, 598}, true},
		{"hit-middle", []uint64{7771, 300, 7773}, true},
		{"miss-outside", []uint64{9999901, 9999903}, false},
	}
	for _, tc := range cases {
		small := dict.InternSet(m.MaskSet(tc.vals))
		if big.Len() < gallopRatio*small.Len() {
			t.Fatalf("%s: fixture not skewed enough (%d vs %d)", tc.name, big.Len(), small.Len())
		}
		if got := big.Intersects(small); got != tc.want {
			t.Errorf("%s: Intersects=%v, want %v", tc.name, got, tc.want)
		}
		if got := small.Intersects(big); got != tc.want {
			t.Errorf("%s (flipped): Intersects=%v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestIntSetEmpty pins the zero-value corners: empty sets intersect
// nothing and contain nothing.
func TestIntSetEmpty(t *testing.T) {
	m := internTestMasker(t)
	dict := NewDict()
	var empty IntSet
	full := dict.InternSet(m.MaskSet([]uint64{1, 2, 3}))
	if empty.Intersects(full) || full.Intersects(empty) || empty.Intersects(empty) {
		t.Error("empty IntSet intersects something")
	}
	if empty.Contains(0) {
		t.Error("empty IntSet contains ID 0")
	}
	if empty.Len() != 0 {
		t.Error("empty IntSet has members")
	}
}

// TestIntSetEqual pins set equality on interned IDs: the same members in
// any order are equal, and sets that share their largest member but
// differ below it are not.
func TestIntSetEqual(t *testing.T) {
	m := internTestMasker(t)
	dict := NewDict()
	a := dict.InternSet(m.MaskSet([]uint64{1, 2, 3}))
	b := dict.InternSet(m.MaskSet([]uint64{3, 1, 2}))
	c := dict.InternSet(m.MaskSet([]uint64{1, 3}))
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("equal member sets compare unequal")
	}
	if a.Max() != c.Max() {
		t.Fatal("fixture: a and c must share their largest ID")
	}
	if a.Equal(c) || c.Equal(a) {
		t.Error("sets with one Max but different members compare equal")
	}
	var empty IntSet
	if !empty.Equal(IntSet{}) || empty.Equal(a) {
		t.Error("empty IntSet equality wrong")
	}
}

// TestSortedDigestsStable pins the wire-ordering helper: output is sorted,
// complete, and identical across two independently built copies of the
// same set (the property SetToWire's byte stability rests on).
func TestSortedDigestsStable(t *testing.T) {
	m := internTestMasker(t)
	vals := []uint64{9, 3, 7, 1, 5, 0, 2}
	a := m.MaskSet(vals)
	b := m.MaskSet([]uint64{0, 1, 2, 3, 5, 7, 9}) // same members, different build order
	da, db := a.SortedDigests(), b.SortedDigests()
	if len(da) != len(vals) || len(da) != len(db) {
		t.Fatalf("sorted dump sizes %d/%d, want %d", len(da), len(db), len(vals))
	}
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("position %d differs between equal sets", i)
		}
		if i > 0 && string(da[i-1][:]) >= string(da[i][:]) {
			t.Fatalf("digests not strictly ascending at %d", i)
		}
	}
}

// TestIntersectsCountedZeroAlloc pins the counted interned intersection
// every auctioneer graph and rank-memo build runs: at the set shapes the
// protocol produces (family ≈ w+1 IDs vs padded cover = 2w−2 IDs) and the
// skewed shape that gallops, it allocates nothing and tallies every call
// (`make alloc-guard`).
func TestIntersectsCountedZeroAlloc(t *testing.T) {
	m := internTestMasker(t)
	dict := NewDict()
	mkSet := func(lo, n uint64) IntSet {
		vs := make([]uint64, n)
		for i := range vs {
			vs[i] = lo + uint64(i)
		}
		return dict.InternSet(m.MaskSet(vs))
	}
	family := mkSet(0, 11)       // w+1 at w=10
	coverHit := mkSet(5, 18)     // 2w−2, overlaps family
	coverMiss := mkSet(1000, 18) // disjoint: Bloom/merge reject
	large := mkSet(2000, 400)    // gallop fixture
	probe := mkSet(2399, 3)      // tiny, hits large's last ID
	for _, tc := range []struct {
		name string
		a, b IntSet
	}{
		{"family-vs-cover-hit", family, coverHit},
		{"family-vs-cover-miss", family, coverMiss},
		{"gallop-skewed", probe, large},
	} {
		var st IntersectStats
		calls := 0
		allocs := testing.AllocsPerRun(1000, func() {
			calls++
			tc.a.IntersectsCounted(tc.b, &st)
		})
		if allocs != 0 {
			t.Errorf("%s: IntersectsCounted allocates %.0f times per call, want 0", tc.name, allocs)
		}
		if st.Calls != uint64(calls) {
			t.Errorf("%s: tallied %d calls over %d", tc.name, st.Calls, calls)
		}
	}
}
