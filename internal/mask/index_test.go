package mask

import (
	"math/rand"
	"testing"
)

// makeIntSet builds an IntSet directly from IDs (tests only; production
// IntSets come from Dict.InternSet, which produces exactly this shape).
func makeIntSet(ids ...uint32) IntSet {
	out := IntSet{ids: append([]uint32(nil), ids...)}
	sortIDs(out.ids)
	for _, id := range out.ids {
		out.sig |= sigBit(id)
	}
	return out
}

func collectRows(ix *Index) map[int][]uint32 {
	cur := ix.Cursor()
	out := map[int][]uint32{}
	st := ix.Stats()
	for i := 0; i < st.Bidders; i++ {
		row := cur.Row(i)
		if len(row) > 0 {
			out[i] = append([]uint32(nil), row...)
		}
	}
	return out
}

func sortedCopy(xs []uint32) []uint32 {
	out := append([]uint32(nil), xs...)
	sortIDs(out)
	return out
}

func TestIndexRowCandidates(t *testing.T) {
	// Bidder 0: fam {1,2}, rng {1,2,3}
	// Bidder 1: fam {2,3}, rng {2,3}
	// Bidder 2: fam {9},   rng {9}
	// fam(0)∩rng(1) = {2,3}∩... → candidate (0,1) via two digests, once.
	// Bidder 2 shares nothing.
	ix := NewIndex(3)
	ix.Add(makeIntSet(1, 2), makeIntSet(1, 2, 3))
	ix.Add(makeIntSet(2, 3), makeIntSet(2, 3))
	ix.Add(makeIntSet(9), makeIntSet(9))

	rows := collectRows(ix)
	if len(rows) != 1 || len(rows[0]) != 1 || rows[0][0] != 1 {
		t.Fatalf("rows = %v, want {0: [1]}", rows)
	}
}

func TestIndexRowDedupAndOrderIndependence(t *testing.T) {
	// Two bidders sharing two digests must yield one candidate, and a row
	// must reset cursor scratch so later rows see a clean bitset.
	ix := NewIndex(4)
	ix.Add(makeIntSet(5, 6), makeIntSet(5, 6))
	ix.Add(makeIntSet(5, 6), makeIntSet(5, 6))
	ix.Add(makeIntSet(5), makeIntSet(5))
	ix.Add(makeIntSet(7), makeIntSet(7))

	cur := ix.Cursor()
	if got := cur.Row(0); len(got) != 2 {
		t.Fatalf("row 0 = %v, want two distinct candidates", got)
	}
	if got := cur.Row(1); len(got) != 1 || got[0] != 2 {
		t.Fatalf("row 1 = %v, want [2]", got)
	}
	if got := cur.Row(2); len(got) != 0 {
		t.Fatalf("row 2 = %v, want empty", got)
	}
	scanned, emitted := cur.Stats()
	if emitted != 3 {
		t.Fatalf("emitted = %d, want 3", emitted)
	}
	if scanned < emitted {
		t.Fatalf("scanned = %d < emitted = %d", scanned, emitted)
	}
}

func TestIndexHotGuard(t *testing.T) {
	// Digest 1 sits on every cover; with the threshold forced down it goes
	// hot, and every row whose family contains it probes all later bidders.
	ix := NewIndex(4)
	for i := 0; i < 4; i++ {
		ix.Add(makeIntSet(1), makeIntSet(1))
	}
	ix.SetHotThreshold(2)

	st := ix.Stats()
	if st.HotDigests != 1 || st.HotRows != 4 {
		t.Fatalf("stats = %+v, want 1 hot digest, 4 hot rows", st)
	}
	cur := ix.Cursor()
	for i := 0; i < 4; i++ {
		want := 4 - i - 1
		if got := cur.Row(i); len(got) != want {
			t.Fatalf("hot row %d = %v, want %d probes", i, got, want)
		}
	}
	// Hot rows never touch posting lists.
	if scanned, _ := cur.Stats(); scanned != 0 {
		t.Fatalf("scanned = %d, want 0 on all-hot index", scanned)
	}
}

func TestIndexSealPanics(t *testing.T) {
	ix := NewIndex(1)
	ix.Add(makeIntSet(1), makeIntSet(1))
	ix.Cursor()
	for name, fn := range map[string]func(){
		"Add":             func() { ix.Add(makeIntSet(2), makeIntSet(2)) },
		"SetHotThreshold": func() { ix.SetHotThreshold(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after seal did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestIndexMatchesBruteForce pins the candidate relation: for random
// family/cover sets, Row(i) must contain j > i exactly when fam(i) and
// rng(j) share an ID (with the guard disabled), and at least those pairs
// under any hot threshold.
func TestIndexMatchesBruteForce(t *testing.T) {
	for _, hotCap := range []int{1 << 30, 3, 1} {
		rng := rand.New(rand.NewSource(42))
		const n, idSpace = 80, 50
		fams := make([]IntSet, n)
		rngs := make([]IntSet, n)
		ix := NewIndex(n)
		for i := 0; i < n; i++ {
			draw := func(k int) IntSet {
				ids := map[uint32]bool{}
				for len(ids) < k {
					ids[uint32(rng.Intn(idSpace))] = true
				}
				flat := make([]uint32, 0, k)
				for id := range ids {
					flat = append(flat, id)
				}
				return makeIntSet(flat...)
			}
			fams[i] = draw(1 + rng.Intn(4))
			rngs[i] = draw(1 + rng.Intn(6))
			ix.Add(fams[i], rngs[i])
		}
		ix.SetHotThreshold(hotCap)

		cur := ix.Cursor()
		for i := 0; i < n; i++ {
			got := map[uint32]bool{}
			for _, j := range cur.Row(i) {
				if int(j) <= i || int(j) >= n {
					t.Fatalf("hotCap %d: row %d emitted out-of-range %d", hotCap, i, j)
				}
				if got[j] {
					t.Fatalf("hotCap %d: row %d emitted duplicate %d", hotCap, i, j)
				}
				got[j] = true
			}
			for j := i + 1; j < n; j++ {
				want := fams[i].Intersects(rngs[j])
				if want && !got[uint32(j)] {
					t.Fatalf("hotCap %d: row %d missing true candidate %d", hotCap, i, j)
				}
				if hotCap == 1<<30 && !want && got[uint32(j)] {
					t.Fatalf("hotCap %d: row %d emitted spurious %d with guard off", hotCap, i, j)
				}
			}
		}
	}
}

func TestSearchGT(t *testing.T) {
	p := []uint32{2, 4, 4, 7}
	cases := []struct {
		v    uint32
		want int
	}{{0, 0}, {2, 1}, {3, 1}, {4, 3}, {6, 3}, {7, 4}, {9, 4}}
	for _, c := range cases {
		if got := searchGT(p, c.v); got != c.want {
			t.Errorf("searchGT(%v, %d) = %d, want %d", p, c.v, got, c.want)
		}
	}
	if got := searchGT(nil, 5); got != 0 {
		t.Errorf("searchGT(nil) = %d, want 0", got)
	}
}

// TestIndexCursorRowZeroAlloc pins the steady-state candidate scan: once
// the cursor's scratch buffers have grown to the hottest row, Row
// allocates nothing (`make alloc-guard`).
func TestIndexCursorRowZeroAlloc(t *testing.T) {
	m := internTestMasker(t)
	dict := NewDict()
	mkSet := func(lo, cnt uint64) IntSet {
		vs := make([]uint64, cnt)
		for i := range vs {
			vs[i] = lo + uint64(i)
		}
		return dict.InternSet(m.MaskSet(vs))
	}
	const n = 256
	ix := NewIndex(n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		lo := uint64(rng.Intn(64))
		ix.Add(mkSet(lo, 11), mkSet(lo, 18))
	}
	cur := ix.Cursor()
	for i := 0; i < n; i++ {
		cur.Row(i) // grow the scratch buffers to steady state
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		cur.Row(i % n)
		i++
	})
	if allocs != 0 {
		t.Errorf("Cursor.Row allocates %.0f times per call, want 0", allocs)
	}
}
