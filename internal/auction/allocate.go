// Package auction implements the spectrum allocation and charging machinery
// shared by the plaintext baseline and LPPA's private auction.
//
// The allocator is the paper's Algorithm 3: repeatedly pick a channel
// uniformly at random, award it to the highest remaining bidder in that
// column, delete the winner's row (each buyer pursues one channel) and the
// winner's conflict neighbors' bids on that channel (so a well-separated
// bidder can win the same channel later — spectrum reuse). The only
// operation it needs on bids is a greater-or-equal comparison within one
// column, which the private auction supplies via masked prefix
// intersection; the engine is therefore written against a comparator.
package auction

import (
	"fmt"
	"math/rand"

	"lppa/internal/conflict"
)

// GE compares two bids in a column: it reports whether bidder i's bid on
// channel r is at least bidder j's. Implementations must induce a total
// preorder per column (the plaintext comparator and the masked
// order-preserving comparator both do).
type GE func(r, i, j int) bool

// Assignment records one awarded channel.
type Assignment struct {
	Bidder  int
	Channel int
}

// Validity adjudicates an award during allocation: it reports whether
// bidder i's winning bid on channel r is genuine. The private auction
// wires this to the TTP's zero test (a disguised or true zero that wins is
// void). A nil oracle treats every award as valid.
//
// Semantics of a void award: the channel is withdrawn for the round (its
// whole column is deleted) — the fake assignment was published, so the
// lease term for that channel is wasted — but the bidder keeps its other
// bids. This interactive-TTP design reproduces the paper's Fig. 5(e)(f)
// performance curve (≈95 % at 1−p0 = 0.1 falling to ≈73 %); the verbatim
// batch-charging reading, in which a void consumes the winner's whole row,
// degrades performance far more steeply and is measured alongside it (see
// DESIGN.md §5 and EXPERIMENTS.md).
type Validity func(i, r int) bool

// Award couples an assignment with the runner-up bidder at award time
// (−1 when the winner was alone in the column). The runner-up determines
// the clearing price under second-price charging, the paper's stated
// future-work direction (section V.C.1).
type Award struct {
	Assignment
	RunnerUp int
}

// Allocate runs Algorithm 3 over n bidders and k channels. present[i][r]
// states whether bidder i has a live bid on channel r at the start (the
// plaintext auction seeds it with bid > 0; the private auction seeds it
// all-true because the auctioneer cannot distinguish zeros). The slice is
// consumed. Ties at the column maximum are broken uniformly at random, as
// the paper's Theorem 1 analysis assumes.
func Allocate(n, k int, present [][]bool, g *conflict.Graph, ge GE, rng *rand.Rand) ([]Assignment, error) {
	assignments, _, err := AllocateWithValidity(n, k, present, g, ge, nil, rng)
	return assignments, err
}

// AllocateWithValidity is Allocate with a validity oracle; it additionally
// returns the voided awards.
func AllocateWithValidity(n, k int, present [][]bool, g *conflict.Graph, ge GE, valid Validity, rng *rand.Rand) ([]Assignment, []Assignment, error) {
	awards, voided, err := AllocateAwards(n, k, present, g, ge, valid, rng)
	if err != nil {
		return nil, nil, err
	}
	assignments := make([]Assignment, len(awards))
	for i, a := range awards {
		assignments[i] = a.Assignment
	}
	return assignments, voided, nil
}

// AllocateAwards is the full-featured comparator engine: Algorithm 3 with
// an optional validity oracle, returning awards with their award-time
// runner-ups. The plaintext baseline allocates with it, and it is the
// reference the private auctioneer's rank-cursor allocator
// (AllocateAwardsOrdered) is pinned to in tests.
func AllocateAwards(n, k int, present [][]bool, g *conflict.Graph, ge GE, valid Validity, rng *rand.Rand) ([]Award, []Assignment, error) {
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
	colCount := make([]int, k) // live cells per column
	for i := range present {
		for r, p := range present[i] {
			if p {
				remaining++
				colCount[r]++
			}
		}
	}

	awards := make([]Award, 0, k)
	var voided []Assignment
	pool := newChannelPool(k, rng)
	var ties []int
	for remaining > 0 {
		r := pool.pick()
		if colCount[r] == 0 {
			continue
		}
		// Find the column maximum under the comparator, then collect ties.
		best := -1
		for i := 0; i < n; i++ {
			if !present[i][r] {
				continue
			}
			if best == -1 || ge(r, i, best) {
				best = i
			}
		}
		ties = ties[:0]
		for i := 0; i < n; i++ {
			if present[i][r] && ge(r, i, best) && ge(r, best, i) {
				ties = append(ties, i)
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
			// Void award: the channel is withdrawn for this round; bx
			// keeps its other bids.
			voided = append(voided, Assignment{Bidder: bx, Channel: r})
			for i := 0; i < n; i++ {
				drop(i, r)
			}
			continue
		}

		// Runner-up: the column maximum excluding the winner, at award
		// time (defines the second-price clearing charge).
		runnerUp := -1
		for i := 0; i < n; i++ {
			if i == bx || !present[i][r] {
				continue
			}
			if runnerUp == -1 || ge(r, i, runnerUp) {
				runnerUp = i
			}
		}

		awards = append(awards, Award{Assignment: Assignment{Bidder: bx, Channel: r}, RunnerUp: runnerUp})
		// Delete the winner's row.
		for c := 0; c < k; c++ {
			drop(bx, c)
		}
		// Delete conflicting neighbors' bids on this channel.
		g.ForEachNeighbor(bx, func(o int) { drop(o, r) })
	}
	return awards, voided, nil
}

// channelPool cycles through channels: each epoch visits every channel once
// in random order; when exhausted it reshuffles, matching the paper's
// "reset R = {1..k}" rule.
type channelPool struct {
	order []int
	pos   int
	rng   *rand.Rand
}

func newChannelPool(k int, rng *rand.Rand) *channelPool {
	p := &channelPool{order: make([]int, k), rng: rng}
	for i := range p.order {
		p.order[i] = i
	}
	p.shuffle()
	return p
}

func (p *channelPool) shuffle() {
	p.rng.Shuffle(len(p.order), func(i, j int) { p.order[i], p.order[j] = p.order[j], p.order[i] })
	p.pos = 0
}

func (p *channelPool) pick() int {
	if p.pos == len(p.order) {
		p.shuffle()
	}
	r := p.order[p.pos]
	p.pos++
	return r
}
