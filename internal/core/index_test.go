package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"lppa/internal/dataset"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
)

// Density shapes for the equivalence suites: the engine must agree with
// the all-pairs oracle from the sparse regime (few posting collisions)
// through pathological stacking (every posting list hot).

func shapePoints(p Params, shape string, n int, seed int64) []geo.Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	clamp := func(v int64, max uint64) uint64 {
		if v < 0 {
			return 0
		}
		if uint64(v) > max {
			return max
		}
		return uint64(v)
	}
	switch shape {
	case "uniform":
		for i := range pts {
			pts[i] = geo.Point{X: uint64(rng.Intn(int(p.MaxX + 1))), Y: uint64(rng.Intn(int(p.MaxY + 1)))}
		}
	case "clustered":
		centers := make([]geo.Point, 3)
		for c := range centers {
			centers[c] = geo.Point{X: uint64(rng.Intn(int(p.MaxX + 1))), Y: uint64(rng.Intn(int(p.MaxY + 1)))}
		}
		for i := range pts {
			c := centers[rng.Intn(len(centers))]
			pts[i] = geo.Point{
				X: clamp(int64(c.X)+int64(rng.NormFloat64()*3), p.MaxX),
				Y: clamp(int64(c.Y)+int64(rng.NormFloat64()*3), p.MaxY),
			}
		}
	case "line":
		// One shared row: X postings collide massively, Y decides conflicts.
		for i := range pts {
			pts[i] = geo.Point{X: uint64(rng.Intn(int(p.MaxX + 1))), Y: p.MaxY / 2}
		}
	case "stacked":
		// Few distinct positions, heavily duplicated — every posting list of
		// the occupied digests is maximally hot.
		for i := range pts {
			pts[i] = geo.Point{X: uint64(5 * rng.Intn(3)), Y: uint64(5 * rng.Intn(3))}
		}
	case "point":
		// One location: a single group holding every bidder.
		for i := range pts {
			pts[i] = geo.Point{X: p.MaxX / 2, Y: p.MaxY / 2}
		}
	case "urban", "rural", "mixed":
		// The bench's density mixes on the params' grid.
		mix, err := dataset.ParseDensity(shape)
		if err != nil {
			panic(err)
		}
		return mix.Points(geo.Grid{Rows: int(p.MaxY) + 1, Cols: int(p.MaxX) + 1}, n, rng)
	default:
		panic("unknown shape " + shape)
	}
	return pts
}

var densityShapes = []string{"uniform", "clustered", "line", "stacked"}

func locSubs(t testing.TB, p Params, pts []geo.Point) []*LocationSubmission {
	t.Helper()
	ring, err := mask.DeriveKeyRing([]byte("index-equivalence"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	subs, err := NewLocationSubmissions(p, ring, pts, 1)
	if err != nil {
		t.Fatal(err)
	}
	return subs
}

// TestIndexedGraphMatchesOracle is the equivalence grid of the indexed
// build: for every density shape and population, the auctioneer's graph is
// bit-identical to the all-pairs oracle over plain mask.Set at every
// worker count.
func TestIndexedGraphMatchesOracle(t *testing.T) {
	p := testParams()
	for _, shape := range densityShapes {
		for _, n := range []int{1, 2, 37, 120} {
			pts := shapePoints(p, shape, n, 0xC0FFEE)
			subs := locSubs(t, p, pts)
			oracle := BuildConflictGraph(subs)
			for _, workers := range []int{1, 2, 5, 16} {
				if got := engineGraphWorkers(t, p, subs, workers); !got.Equal(oracle) {
					t.Fatalf("%s/n=%d/workers=%d: indexed graph differs from oracle", shape, n, workers)
				}
			}
		}
	}
}

// FuzzIndexedEquivalence replays arbitrary (seed, population, shape,
// workers, crafted) tuples: the auctioneer's indexed graph, built serially
// and at that worker count, must stay bit-identical to the all-pairs oracle
// on every one. craftRaw then inserts a crafted bidder (craftedLocation:
// another bidder's families, the covers of a point half the domain away)
// at a position it picks, and every honest pair's edge must still equal
// the plaintext truth's. All inputs derive from the fuzz arguments, so any
// failure replays deterministically from its corpus file (the
// FuzzDecodeFrame convention).
func FuzzIndexedEquivalence(f *testing.F) {
	for shape := uint8(0); shape < 4; shape++ {
		f.Add(int64(1), uint8(20), shape, uint8(1), shape)
		f.Add(int64(2), uint8(45), shape, uint8(3), 2*shape+1)
	}
	f.Add(int64(3), uint8(10), uint8(0), uint8(2), uint8(9))
	f.Add(int64(0), uint8(0), uint8(0), uint8(0), uint8(0))

	p := testParams()
	f.Fuzz(func(t *testing.T, seed int64, nRaw, shapeRaw, workersRaw, craftRaw uint8) {
		n := int(nRaw%48) + 1
		shape := densityShapes[int(shapeRaw)%len(densityShapes)]
		workers := int(workersRaw%5) + 1
		pts := shapePoints(p, shape, n, seed)
		subs := locSubs(t, p, pts)

		oracle := BuildConflictGraph(subs)
		if got := engineGraph(t, p, subs); !got.Equal(oracle) {
			t.Fatalf("seed=%d shape=%s n=%d: indexed graph differs from oracle", seed, shape, n)
		}
		if got := engineGraphWorkers(t, p, subs, workers); !got.Equal(oracle) {
			t.Fatalf("seed=%d shape=%s n=%d workers=%d: indexed graph differs from oracle", seed, shape, n, workers)
		}

		victim := pts[int(craftRaw)%n]
		far := geo.Point{X: (victim.X + (p.MaxX+1)/2) % (p.MaxX + 1), Y: (victim.Y + (p.MaxY+1)/2) % (p.MaxY + 1)}
		pair := locSubs(t, p, []geo.Point{victim, far})
		crafted := craftedLocation(pair[0], pair[1], craftRaw&1 == 1)
		at := int(craftRaw/2) % (n + 1)
		withCrafted := slices.Insert(slices.Clone(subs), at, crafted)
		honest := make([]*geo.Point, 0, n+1)
		for i := range pts {
			honest = append(honest, &pts[i])
		}
		honest = slices.Insert(honest, at, nil)
		tag := fmt.Sprintf("seed=%d shape=%s n=%d crafted=%d at %d", seed, shape, n, craftRaw, at)
		checkHonestEdges(t, tag, p, engineGraph(t, p, withCrafted), honest)
		checkHonestEdges(t, fmt.Sprintf("%s workers=%d", tag, workers), p, engineGraphWorkers(t, p, withCrafted, workers), honest)
	})
}

// TestSkewGuardIgnoresColocatedStack pins that the candidate index holds
// distinct locations, not bidders: 70 bidders stacked on one point post
// their digests once, so the skew guard — auto threshold max(64, G/8) over
// G distinct locations — does not fire, while 70 distinct bidders sharing
// one x column in an otherwise identical population do trip it. Both
// graphs equal the oracle's.
func TestSkewGuardIgnoresColocatedStack(t *testing.T) {
	p := Params{Channels: 1, Lambda: 2, MaxX: 999, MaxY: 999, BMax: 10}
	const stacked, spread = 70, 30
	rng := rand.New(rand.NewSource(8))
	var rest []geo.Point
	for i := 0; i < spread; i++ {
		rest = append(rest, geo.Point{X: uint64(300 + rng.Intn(700)), Y: uint64(300 + rng.Intn(700))})
	}
	for _, tc := range []struct {
		tag     string
		at      func(i int) geo.Point
		groups  int
		wantHot bool
	}{
		{"colocated", func(int) geo.Point { return geo.Point{X: 5, Y: 5} }, 1 + spread, false},
		{"column", func(i int) geo.Point { return geo.Point{X: 5, Y: uint64(i)} }, stacked + spread, true},
	} {
		pts := make([]geo.Point, 0, stacked+spread)
		for i := 0; i < stacked; i++ {
			pts = append(pts, tc.at(i))
		}
		subs := locSubs(t, p, append(pts, rest...))
		auc := engineAuctioneer(t, p, subs)
		if !auc.ConflictGraph().Equal(BuildConflictGraph(subs)) {
			t.Errorf("%s: indexed graph differs from oracle", tc.tag)
		}
		st := auc.ixStats
		if st.Bidders != tc.groups {
			t.Errorf("%s: index holds %d rows, want %d distinct locations", tc.tag, st.Bidders, tc.groups)
		}
		if hot := st.HotDigests > 0; hot != tc.wantHot {
			t.Errorf("%s: index stats %+v, want hot digests = %v", tc.tag, st, tc.wantHot)
		}
		if tc.wantHot && st.HotRows < stacked {
			t.Errorf("%s: hot rows = %d, want at least the %d stacked bidders", tc.tag, st.HotRows, stacked)
		}
	}
}

// TestIndexObserverCounters pins the instrumentation contract: an observed
// build reports candidates exactly equal to the X-axis match count (no
// co-located bidders and no hot rows at this size), confirms exactly equal
// to the edge count, a plausible postings-scanned tally, and one
// index-build timing — while the graph stays bit-identical to the
// unobserved build.
func TestIndexObserverCounters(t *testing.T) {
	p := testParams()
	auc, pts, bids := randomRound(t, p, 50, 7)
	reg := obs.NewRegistry()
	auc.SetObserver(reg)
	g := auc.ConflictGraph()

	plain := buildRound(t, p, pts, bids, 1007)
	if !g.Equal(plain.ConflictGraph()) {
		t.Fatal("observed indexed graph differs from unobserved")
	}

	subs := locSubs(t, p, pts)
	wantCandidates := uint64(0)
	for i := range subs {
		for j := i + 1; j < len(subs); j++ {
			if subs[i].XFamily.Intersects(subs[j].XRange) {
				wantCandidates++
			}
		}
	}

	snap := reg.Snapshot()
	if got := snap.Counters["lppa_index_candidates_total"]; got != wantCandidates {
		t.Errorf("candidates = %d, want %d", got, wantCandidates)
	}
	if got := snap.Counters["lppa_index_oracle_confirms_total"]; got != uint64(g.Edges()) {
		t.Errorf("confirms = %d, want %d edges", got, g.Edges())
	}
	scanned := snap.Counters["lppa_index_postings_scanned_total"]
	if scanned < wantCandidates {
		t.Errorf("postings scanned = %d < candidates = %d (no hot rows expected)", scanned, wantCandidates)
	}
	hist, ok := snap.Histograms["lppa_index_build_seconds"]
	if !ok || hist.Count != 1 {
		t.Errorf("index build histogram = %+v, want one observation", hist)
	}
}

// TestIndexCountersExported is the exporter golden: the index series render
// in both the Prometheus text format and the JSON snapshot with the exact
// values the registry holds.
func TestIndexCountersExported(t *testing.T) {
	p := testParams()
	auc, _, _ := randomRound(t, p, 40, 13)
	reg := obs.NewRegistry()
	auc.SetObserver(reg)
	auc.ConflictGraph()

	snap := reg.Snapshot()
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{
		"lppa_index_postings_scanned_total",
		"lppa_index_candidates_total",
		"lppa_index_oracle_confirms_total",
	} {
		v, ok := snap.Counters[name]
		if !ok {
			t.Fatalf("JSON snapshot missing %s", name)
		}
		if v == 0 {
			t.Errorf("%s = 0, want activity on a conflicting population", name)
		}
		for _, line := range []string{
			fmt.Sprintf("# TYPE %s counter\n", name),
			fmt.Sprintf("%s %d\n", name, v),
		} {
			if !bytes.Contains(prom.Bytes(), []byte(line)) {
				t.Errorf("Prometheus output missing %q", line)
			}
		}
	}
	if !bytes.Contains(prom.Bytes(), []byte("# TYPE lppa_index_build_seconds histogram\n")) ||
		!bytes.Contains(prom.Bytes(), []byte("lppa_index_build_seconds_count 1\n")) {
		t.Error("Prometheus output missing lppa_index_build_seconds histogram series")
	}
}
