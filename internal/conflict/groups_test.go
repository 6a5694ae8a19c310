package conflict

import (
	"fmt"
	"math/rand"
	"testing"
)

// groupCase is a population partitioned into groups with a symmetric CSR
// group adjacency, as FromGroups takes it.
type groupCase struct {
	tag   string
	group []uint32
	start []int
	adj   []uint32
}

// newGroupCase assigns n nodes to groups at random and links each group
// pair with probability density, listing every link both ways. dup also
// lists each group beside itself and repeats one neighbour, which
// FromGroups must tolerate.
func newGroupCase(tag string, n, groups int, density float64, dup bool, seed int64) groupCase {
	rng := rand.New(rand.NewSource(seed))
	c := groupCase{tag: tag, group: make([]uint32, n)}
	for i := range c.group {
		c.group[i] = uint32(rng.Intn(groups))
		if groups == n {
			c.group[i] = uint32(i) // all singletons
		}
	}
	lists := make([][]uint32, groups)
	for g := 0; g < groups; g++ {
		for h := g + 1; h < groups; h++ {
			if rng.Float64() < density {
				lists[g] = append(lists[g], uint32(h))
				lists[h] = append(lists[h], uint32(g))
			}
		}
		if dup {
			lists[g] = append(lists[g], uint32(g))
			if len(lists[g]) > 1 {
				lists[g] = append(lists[g], lists[g][0])
			}
		}
	}
	c.start = make([]int, groups+1)
	for g, l := range lists {
		c.adj = append(c.adj, l...)
		c.start[g+1] = len(c.adj)
	}
	return c
}

// perPair expands c the slow way: one AddEdge per member pair that shares
// a group or whose groups are listed as adjacent.
func (c groupCase) perPair() *Graph {
	groups := len(c.start) - 1
	linked := make([][]bool, groups)
	for g := range linked {
		linked[g] = make([]bool, groups)
		linked[g][g] = true
		for _, h := range c.adj[c.start[g]:c.start[g+1]] {
			linked[g][h] = true
		}
	}
	g := NewGraph(len(c.group))
	for i := range c.group {
		for j := i + 1; j < len(c.group); j++ {
			if linked[c.group[i]][c.group[j]] {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// TestFromGroupsMatchesAddEdge pins the group-row constructor to per-pair
// AddEdge expansion at every worker count, more workers than groups
// included: node counts on and off the 64-bit word boundary, all
// singletons, one group holding every node, empty adjacency, empty groups,
// and repeated and self listings.
func TestFromGroupsMatchesAddEdge(t *testing.T) {
	cases := []groupCase{
		newGroupCase("empty", 0, 0, 0, false, 1),
		newGroupCase("n=130", 130, 40, 0.2, false, 2),
		newGroupCase("n=64", 64, 9, 0.5, false, 3),
		newGroupCase("n=200-dense", 200, 30, 0.9, false, 4),
		newGroupCase("singletons", 70, 70, 0.1, false, 5),
		newGroupCase("one-group", 100, 1, 0, false, 6),
		newGroupCase("no-adjacency", 90, 10, 0, false, 7),
		newGroupCase("empty-groups", 20, 50, 0.3, false, 8),
		newGroupCase("dup-and-self", 129, 17, 0.3, true, 9),
	}
	for _, c := range cases {
		want := c.perPair()
		for _, workers := range []int{0, 1, 2, 3, 7, 64} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.tag, workers), func(t *testing.T) {
				got := FromGroups(c.group, c.start, c.adj, workers)
				if !got.Equal(want) {
					t.Fatalf("graph differs from per-pair AddEdge: %d edges, want %d", got.Edges(), want.Edges())
				}
				for i := 0; i < got.N(); i++ {
					if got.HasEdge(i, i) {
						t.Fatalf("self loop at %d", i)
					}
				}
			})
		}
	}
}

// TestFromGroupsRejectsBadGroup pins the panic on a node whose group is
// outside the adjacency.
func TestFromGroupsRejectsBadGroup(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("node in group 2 of 2 accepted")
		}
	}()
	FromGroups([]uint32{0, 2}, []int{0, 0, 0}, nil, 1)
}
