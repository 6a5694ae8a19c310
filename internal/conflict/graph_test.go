package conflict

import (
	"math/rand"
	"testing"

	"lppa/internal/geo"
)

func TestNewGraphEmpty(t *testing.T) {
	g := NewGraph(10)
	if g.N() != 10 || g.Edges() != 0 {
		t.Fatalf("n=%d edges=%d", g.N(), g.Edges())
	}
	for i := 0; i < 10; i++ {
		if g.Degree(i) != 0 {
			t.Errorf("degree(%d) = %d", i, g.Degree(i))
		}
	}
}

func TestAddEdgeSymmetric(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(1, 3)
	if !g.HasEdge(1, 3) || !g.HasEdge(3, 1) {
		t.Error("edge not symmetric")
	}
	if g.HasEdge(1, 2) {
		t.Error("phantom edge")
	}
	if g.Edges() != 1 {
		t.Errorf("edges = %d", g.Edges())
	}
	g.AddEdge(1, 3) // idempotent
	if g.Edges() != 1 {
		t.Error("duplicate AddEdge changed count")
	}
}

func TestSelfLoopIgnored(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(2, 2)
	if g.HasEdge(2, 2) || g.Edges() != 0 {
		t.Error("self loop recorded")
	}
}

func TestNeighborsSortedAndComplete(t *testing.T) {
	g := NewGraph(70) // spans multiple words
	for _, j := range []int{3, 64, 69, 1} {
		g.AddEdge(5, j)
	}
	var got []int
	g.ForEachNeighbor(5, func(j int) { got = append(got, j) })
	want := []int{1, 3, 64, 69}
	if len(got) != len(want) {
		t.Fatalf("ForEachNeighbor = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEachNeighbor = %v, want %v", got, want)
		}
	}
	if g.Degree(5) != 4 {
		t.Errorf("degree = %d", g.Degree(5))
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := NewGraph(3)
	for name, f := range map[string]func(){
		"AddEdge":  func() { g.AddEdge(0, 3) },
		"HasEdge":  func() { g.HasEdge(-1, 0) },
		"Degree":   func() { g.Degree(5) },
		"negative": func() { NewGraph(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBuildPlainMatchesPredicate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const n = 60
	const lambda = 3
	points := make([]geo.Point, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(50)), Y: uint64(rng.Intn(50))}
	}
	g := BuildPlain(points, lambda)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			want := geo.Conflict(points[i], points[j], lambda)
			if g.HasEdge(i, j) != want {
				t.Fatalf("edge(%d,%d) = %v, want %v (points %v %v)",
					i, j, g.HasEdge(i, j), want, points[i], points[j])
			}
		}
	}
}

func TestBuildFromPredicateEqualsBuildPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n = 40
	const lambda = 2
	points := make([]geo.Point, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(30)), Y: uint64(rng.Intn(30))}
	}
	a := BuildPlain(points, lambda)
	b := BuildFromPredicate(n, func(i, j int) bool {
		return geo.Conflict(points[i], points[j], lambda)
	})
	if !a.Equal(b) {
		t.Error("predicate-built graph differs from plain-built graph")
	}
}

func TestEqual(t *testing.T) {
	a := NewGraph(4)
	b := NewGraph(4)
	a.AddEdge(0, 1)
	if a.Equal(b) {
		t.Error("graphs with different edges equal")
	}
	b.AddEdge(0, 1)
	if !a.Equal(b) {
		t.Error("identical graphs unequal")
	}
	if a.Equal(NewGraph(5)) {
		t.Error("graphs with different sizes equal")
	}
}

func TestCliqueDegrees(t *testing.T) {
	// All users in one cell: complete graph.
	points := make([]geo.Point, 10)
	for i := range points {
		points[i] = geo.Point{X: 5, Y: 5}
	}
	g := BuildPlain(points, 1)
	if g.Edges() != 45 {
		t.Errorf("clique edges = %d, want 45", g.Edges())
	}
	for i := 0; i < 10; i++ {
		if g.Degree(i) != 9 {
			t.Errorf("degree(%d) = %d, want 9", i, g.Degree(i))
		}
	}
}

func TestFarApartNoEdges(t *testing.T) {
	points := []geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}}
	g := BuildPlain(points, 5)
	if g.Edges() != 0 {
		t.Errorf("edges = %d, want 0", g.Edges())
	}
}
