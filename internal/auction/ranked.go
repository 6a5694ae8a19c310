package auction

import (
	"fmt"
	"math/rand"

	"lppa/internal/conflict"
)

// Column supplies a channel's precomputed rank memo: order is all bidders
// sorted by descending bid with ties in ascending index order (exactly the
// stable sort the per-column memo builds), rank the dense rank of each
// bidder in that order. Fetched lazily, once per column the allocator
// actually visits.
type Column func(r int) (order, rank []int)

// AllocateAwardsOrdered is AllocateAwards driven by per-column rank memos
// instead of a pairwise comparator. Each pick reads the column's head rank
// group through a monotone cursor — O(group + dead entries retired) per
// award instead of two O(n) comparator sweeps — which is what keeps the
// private auctioneer's allocation phase sub-quadratic. It is bit-identical
// to AllocateAwards for the same inputs and rng, because the legacy sweeps
// resolve to positions in the same memo order:
//
//   - the legacy best scan (ascending i, update on GE(i, best)) lands on
//     the max-index member of the best present rank group, and the tie
//     collection lists that group's present members in ascending index
//     order — exactly the group's order inside the memo;
//   - the runner-up scan lands on the max-index member of the best present
//     rank group once the winner is excluded;
//   - both paths draw the same rng values (one Intn per award over an
//     identical tie list; the channel pool is shared code).
//
// *served is incremented once per memo entry the allocator examines (the
// memo-hit tally); served must be non-nil. See AllocateAwards for the
// void-award semantics.
func AllocateAwardsOrdered(n, k int, present [][]bool, g *conflict.Graph, column Column, valid Validity, served *uint64, rng *rand.Rand) ([]Award, []Assignment, error) {
	if g.N() != n {
		return nil, nil, fmt.Errorf("auction: conflict graph has %d nodes, want %d", g.N(), n)
	}
	if len(present) != n {
		return nil, nil, fmt.Errorf("auction: present has %d rows, want %d", len(present), n)
	}
	for i := range present {
		if len(present[i]) != k {
			return nil, nil, fmt.Errorf("auction: present row %d has %d columns, want %d", i, len(present[i]), k)
		}
	}

	remaining := 0
	colCount := make([]int, k)
	for i := range present {
		for r, p := range present[i] {
			if p {
				remaining++
				colCount[r]++
			}
		}
	}

	// Per-column memo state, fetched on first use. cursor[r] is monotone:
	// it only ever moves past entries that are no longer present, and bids
	// are never revived, so retired entries stay retired.
	orders := make([][]int, k)
	ranks := make([][]int, k)
	cursor := make([]int, k)

	awards := make([]Award, 0, k)
	var voided []Assignment
	pool := newChannelPool(k, rng)
	var ties []int
	for remaining > 0 {
		r := pool.pick()
		if colCount[r] == 0 {
			continue
		}
		if orders[r] == nil {
			o, rk := column(r)
			if len(o) != n || len(rk) != n {
				return nil, nil, fmt.Errorf("auction: column %d memo has %d/%d entries, want %d", r, len(o), len(rk), n)
			}
			orders[r] = o
			ranks[r] = rk
		}
		o, rk := orders[r], ranks[r]
		c := cursor[r]
		for !present[o[c]][r] {
			c++ // colCount[r] > 0 guarantees a live entry ahead
		}
		cursor[r] = c

		// Head group: contiguous memo entries sharing the best live rank;
		// its present members, in memo (= ascending index) order, are the
		// legacy tie list.
		headRank := rk[o[c]]
		ties = ties[:0]
		e := c
		for ; e < n && rk[o[e]] == headRank; e++ {
			*served++
			if present[o[e]][r] {
				ties = append(ties, o[e])
			}
		}
		bx := ties[rng.Intn(len(ties))]

		drop := func(i, c int) {
			if present[i][c] {
				present[i][c] = false
				colCount[c]--
				remaining--
			}
		}

		if valid != nil && !valid(bx, r) {
			voided = append(voided, Assignment{Bidder: bx, Channel: r})
			for i := 0; i < n; i++ {
				drop(i, r)
			}
			continue
		}

		// Runner-up: max-index member of the best rank group present once
		// bx is excluded — the rest of the head group if any of it is
		// live, otherwise the next group with a live member.
		runnerUp := -1
		if len(ties) > 1 {
			runnerUp = ties[len(ties)-1]
			if runnerUp == bx {
				runnerUp = ties[len(ties)-2]
			}
		} else {
			f := e
			for f < n && !present[o[f]][r] {
				f++
			}
			if f < n {
				r2 := rk[o[f]]
				for ; f < n && rk[o[f]] == r2; f++ {
					*served++
					if present[o[f]][r] {
						runnerUp = o[f]
					}
				}
			}
		}

		awards = append(awards, Award{Assignment: Assignment{Bidder: bx, Channel: r}, RunnerUp: runnerUp})
		for c := 0; c < k; c++ {
			drop(bx, c)
		}
		g.ForEachNeighbor(bx, func(o int) { drop(o, r) })
	}
	return awards, voided, nil
}
