package auction

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"lppa/internal/conflict"
)

// rankedFixture builds a random instance: bid matrix, conflict graph, the
// pairwise comparator, and the rank memos the ordered engine consumes:
// the order core.columnRank produces (descending bid, ties in index
// order), built here by a stable sort under the comparator, with tied
// bidders sharing a rank.
func rankedFixture(t *testing.T, n, k int, seed int64) (bids [][]uint64, g *conflict.Graph, ge GE, column Column) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bids = make([][]uint64, n)
	for i := range bids {
		bids[i] = make([]uint64, k)
		for r := range bids[i] {
			// Small value range: plenty of exact ties to break.
			bids[i][r] = uint64(rng.Intn(6))
		}
	}
	g = conflict.BuildFromPredicate(n, func(i, j int) bool { return rng.Intn(4) == 0 })
	ge = func(r, i, j int) bool { return bids[i][r] >= bids[j][r] }

	orders := make([][]int, k)
	ranks := make([][]int, k)
	column = func(r int) ([]int, []int) {
		if orders[r] == nil {
			order := make([]int, n)
			for i := range order {
				order[i] = i
			}
			sort.SliceStable(order, func(x, y int) bool {
				i, j := order[x], order[y]
				return ge(r, i, j) && !ge(r, j, i)
			})
			rank := make([]int, n)
			rk := 0
			for x, i := range order {
				if x > 0 {
					prev := order[x-1]
					if !(ge(r, i, prev) && ge(r, prev, i)) {
						rk = x
					}
				}
				rank[i] = rk
			}
			orders[r], ranks[r] = order, rank
		}
		return orders[r], ranks[r]
	}
	return bids, g, ge, column
}

func clonePresent(p [][]bool) [][]bool {
	out := make([][]bool, len(p))
	for i := range p {
		out[i] = append([]bool(nil), p[i]...)
	}
	return out
}

// TestAllocateAwardsOrderedMatchesLegacy pins the rank-cursor engine
// bit-identical to Algorithm 3 — awards, runner-ups, voids, and rng
// consumption — across sizes, channel counts, presence shapes, and
// validity oracles.
func TestAllocateAwardsOrderedMatchesLegacy(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(40) + 1
		k := rng.Intn(5) + 1
		_, g, ge, column := rankedFixture(t, n, k, seed*31+7)

		present := make([][]bool, n)
		for i := range present {
			present[i] = make([]bool, k)
			for r := range present[i] {
				present[i][r] = rng.Intn(5) > 0
			}
		}

		var valid Validity
		if seed%3 == 1 {
			// Deterministic pseudo-random oracle shared by both engines.
			valid = func(i, r int) bool { return (i*31+r*17+int(seed))%4 != 0 }
		}

		legacyRng := rand.New(rand.NewSource(seed * 101))
		wantAwards, wantVoided, err := AllocateAwards(n, k, clonePresent(present), g, ge, valid, legacyRng)
		if err != nil {
			t.Fatal(err)
		}
		orderedRng := rand.New(rand.NewSource(seed * 101))
		var served uint64
		gotAwards, gotVoided, err := AllocateAwardsOrdered(n, k, clonePresent(present), g, column, valid, &served, orderedRng)
		if err != nil {
			t.Fatal(err)
		}

		if !reflect.DeepEqual(gotAwards, wantAwards) {
			t.Fatalf("seed=%d n=%d k=%d: awards differ\n got %v\nwant %v", seed, n, k, gotAwards, wantAwards)
		}
		if !reflect.DeepEqual(gotVoided, wantVoided) {
			t.Fatalf("seed=%d n=%d k=%d: voids differ\n got %v\nwant %v", seed, n, k, gotVoided, wantVoided)
		}
		// Same rng consumption: both streams must agree on the next draw.
		if a, b := legacyRng.Int63(), orderedRng.Int63(); a != b {
			t.Fatalf("seed=%d: rng streams diverged (%d vs %d)", seed, a, b)
		}
	}
}

// TestAllocateAwardsOrderedServed pins the memo-hit tally contract: served
// counts the memo entries the allocator examines.
func TestAllocateAwardsOrderedServed(t *testing.T) {
	const n, k = 12, 3
	_, g, _, column := rankedFixture(t, n, k, 5)
	present := make([][]bool, n)
	for i := range present {
		present[i] = make([]bool, k)
		for r := range present[i] {
			present[i][r] = true
		}
	}
	var servedCount uint64
	_, _, err := AllocateAwardsOrdered(n, k, clonePresent(present), g, column, nil,
		&servedCount, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if servedCount == 0 {
		t.Error("served never counted")
	}
}

// TestAllocateAwardsOrderedValidation covers the error paths.
func TestAllocateAwardsOrderedValidation(t *testing.T) {
	_, g, _, column := rankedFixture(t, 4, 2, 1)
	rng := rand.New(rand.NewSource(1))
	var served uint64
	if _, _, err := AllocateAwardsOrdered(5, 2, make([][]bool, 5), g, column, nil, &served, rng); err == nil {
		t.Error("graph size mismatch accepted")
	}
	if _, _, err := AllocateAwardsOrdered(4, 2, make([][]bool, 3), g, column, nil, &served, rng); err == nil {
		t.Error("short present accepted")
	}
	bad := Column(func(r int) ([]int, []int) { return []int{0}, []int{0} })
	present := make([][]bool, 4)
	for i := range present {
		present[i] = []bool{true, true}
	}
	if _, _, err := AllocateAwardsOrdered(4, 2, present, g, bad, nil, &served, rng); err == nil {
		t.Error("short column memo accepted")
	}
}
