// Package conflict represents the bidder interference graph the auctioneer
// needs for spectrum reuse: two users conflict when their interference
// squares overlap (|Δx| < 2λ ∧ |Δy| < 2λ). The graph can be built from
// plaintext locations (baseline auction), from any pairwise predicate, or
// from groups of co-located nodes and their group adjacency (FromGroups),
// which is how LPPA's auctioneer (package core) writes the relation its
// masked location submissions reveal.
package conflict

import (
	"fmt"
	"math/bits"
	"sync"

	"lppa/internal/geo"
)

// Graph is an undirected interference graph over n bidders, stored as a
// dense adjacency bitset (auction populations are hundreds of users, and
// the allocator scans neighborhoods constantly).
type Graph struct {
	n     int
	words int
	adj   []uint64 // row-major: node i occupies words [i*words, (i+1)*words)
}

// NewGraph returns an edgeless graph over n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("conflict: negative node count %d", n))
	}
	words := (n + 63) / 64
	return &Graph{n: n, words: words, adj: make([]uint64, n*words)}
}

// N reports the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge links i and j (no-op for self loops: a bidder never conflicts
// itself out of a channel).
func (g *Graph) AddEdge(i, j int) {
	g.check(i)
	g.check(j)
	if i == j {
		return
	}
	g.adj[i*g.words+j/64] |= 1 << (j % 64)
	g.adj[j*g.words+i/64] |= 1 << (i % 64)
}

// HasEdge reports whether i and j conflict.
func (g *Graph) HasEdge(i, j int) bool {
	g.check(i)
	g.check(j)
	return g.adj[i*g.words+j/64]&(1<<(j%64)) != 0
}

func (g *Graph) check(i int) {
	if i < 0 || i >= g.n {
		panic(fmt.Sprintf("conflict: node %d out of range [0,%d)", i, g.n))
	}
}

// row returns node i's adjacency words.
func (g *Graph) row(i int) []uint64 { return g.adj[i*g.words : (i+1)*g.words] }

// Degree returns the number of neighbors of i.
func (g *Graph) Degree(i int) int {
	g.check(i)
	d := 0
	for _, w := range g.row(i) {
		d += bits.OnesCount64(w)
	}
	return d
}

// ForEachNeighbor calls fn for each neighbor of i in ascending order.
func (g *Graph) ForEachNeighbor(i int, fn func(j int)) {
	g.check(i)
	for wi, w := range g.row(i) {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*64 + b)
			w &= w - 1
		}
	}
}

// Edges reports the total edge count.
func (g *Graph) Edges() int {
	total := 0
	for i := 0; i < g.n; i++ {
		total += g.Degree(i)
	}
	return total / 2
}

// Equal reports whether two graphs have identical node count and edges.
func (g *Graph) Equal(other *Graph) bool {
	if g.n != other.n {
		return false
	}
	for i := range g.adj {
		if g.adj[i] != other.adj[i] {
			return false
		}
	}
	return true
}

// BuildPlain constructs the graph from plaintext locations using the
// interference predicate directly. This is the baseline the private
// construction is tested for equivalence against.
func BuildPlain(points []geo.Point, lambda uint64) *Graph {
	g := NewGraph(len(points))
	for i := 0; i < len(points); i++ {
		for j := i + 1; j < len(points); j++ {
			if geo.Conflict(points[i], points[j], lambda) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// BuildFromPredicate constructs the graph by evaluating an arbitrary
// symmetric pairwise predicate; the core tests' all-pairs oracle passes
// the masked prefix-intersection test. pred is only called for i < j.
func BuildFromPredicate(n int, pred func(i, j int) bool) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pred(i, j) {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// FromGroups builds the graph of a population partitioned into groups:
// node i belongs to group[i], every two members of one group conflict, and
// every member of group g conflicts with every member of each group listed
// in adj[start[g]:start[g+1]]. The listing must be symmetric — h is in g's
// list exactly when g is in h's — and may repeat a group or list g itself.
// The result is the graph AddEdge builds for every such member pair.
//
// LPPA's auctioneer groups co-located bidders, whose rows are equal but
// for each member's own bit, so each group's row is written once, into
// its first member's row, and copied to the others before the members'
// own bits are cleared. Groups are striped over at most workers
// goroutines. Every row belongs to exactly one group, so no adjacency word
// is written by two goroutines, and the graph is the same for every
// worker count.
func FromGroups(group []uint32, start []int, adj []uint32, workers int) *Graph {
	groups := len(start) - 1
	if groups < 0 {
		panic("conflict: FromGroups needs start[0..groups]")
	}
	g := NewGraph(len(group))

	// members[first[k]:first[k+1]] lists group k's nodes in ascending order.
	first := make([]int, groups+1)
	for i, k := range group {
		if int(k) >= groups {
			panic(fmt.Sprintf("conflict: node %d in group %d, want < %d", i, k, groups))
		}
		first[k+1]++
	}
	for k := 1; k <= groups; k++ {
		first[k] += first[k-1]
	}
	members := make([]int, len(group))
	for i, k := range group {
		members[first[k]] = i
		first[k]++
	}
	copy(first[1:], first[:groups])
	first[0] = 0

	build := func(k int) {
		ms := members[first[k]:first[k+1]]
		if len(ms) == 0 {
			return
		}
		row := g.row(ms[0])
		for _, j := range ms {
			row[j/64] |= 1 << (j % 64)
		}
		for _, h := range adj[start[k]:start[k+1]] {
			for _, j := range members[first[h]:first[h+1]] {
				row[j/64] |= 1 << (j % 64)
			}
		}
		for _, i := range ms[1:] {
			r := g.row(i)
			copy(r, row)
			r[i/64] &^= 1 << (i % 64)
		}
		row[ms[0]/64] &^= 1 << (ms[0] % 64)
	}
	if workers > groups {
		workers = groups
	}
	if workers <= 1 {
		for k := 0; k < groups; k++ {
			build(k)
		}
		return g
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < groups; k += workers {
				build(k)
			}
		}(w)
	}
	wg.Wait()
	return g
}
