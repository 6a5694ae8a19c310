package round

import "math/rand"

// stripeSource is the rand.Source64 under each encode stripe's
// *rand.Rand: math/rand.NewSource's lagged-Fibonacci generator bit for
// bit, so no submission or award moves. Only Seed differs: it computes
// each step of math/rand's 1,841-step Park–Miller chain independently.
type stripeSource struct {
	tap, feed int
	vec       [stripeLen]int64
}

// The generator's lags, and the seeding chain's modulus, a Mersenne prime.
const stripeLen, stripeTap, parkMiller = 607, 273, 1<<31 - 1

// seedPows[i] holds 48271ᵏ mod 2³¹−1 for the steps k = 21+3i … 23+3i
// that make word i. stripeCooked is math/rand's "cooked" table.
var seedPows [stripeLen][3]uint64
var stripeCooked [stripeLen]int64

// init builds the power table and recovers the cooked table from
// math/rand itself: NewSource(1)'s first 607 draws rewrite every word
// once, draw k at feed slot (333−k) mod 607, so undoing them in reverse
// gives its seeded state, and XORing out seed 1's words leaves the table.
func init() {
	for k, p := 1, uint64(1); k <= 20+3*stripeLen; k++ {
		if p = p * 48271 % parkMiller; k > 20 {
			seedPows[(k-21)/3][(k-21)%3] = p
		}
	}
	var words stripeSource
	words.Seed(1) // while stripeCooked is zero: seed 1's bare words
	ref := rand.NewSource(1).(rand.Source64)
	for k := 0; k < stripeLen; k++ {
		stripeCooked[(2*stripeLen-stripeTap-1-k)%stripeLen] = int64(ref.Uint64())
	}
	for tap, feed := 0, stripeLen-stripeTap; tap < stripeLen; tap, feed = tap+1, (feed+1)%stripeLen {
		stripeCooked[feed] -= stripeCooked[tap]
	}
	for i, w := range words.vec {
		stripeCooked[i] ^= w
	}
}

// Seed reduces seed as math/rand does (mod 2³¹−1, negatives lifted, 0 →
// 89482311); word i is x<<40 ^ x′<<20 ^ x″ ^ cooked[i], each step x₀·48271ᵏ
// by two Mersenne folds: both factors lie in [1, 2³¹−1) and the modulus is
// prime, so the second fold lands in [1, 2³¹−1) with no division or branch.
func (s *stripeSource) Seed(seed int64) {
	s.tap, s.feed = 0, stripeLen-stripeTap
	if seed %= parkMiller; seed < 0 {
		seed += parkMiller
	}
	if seed == 0 {
		seed = 89482311
	}
	x0 := uint64(seed)
	for i := range s.vec {
		pow := &seedPows[i]
		a, b, c := x0*pow[0], x0*pow[1], x0*pow[2]
		a, b, c = a&parkMiller+a>>31, b&parkMiller+b>>31, c&parkMiller+c>>31
		a, b, c = a&parkMiller+a>>31, b&parkMiller+b>>31, c&parkMiller+c>>31
		s.vec[i] = int64(a<<40^b<<20^c) ^ stripeCooked[i]
	}
}

// Uint64 is math/rand's step: both indices move down, and feed += tap.
func (s *stripeSource) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += stripeLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += stripeLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 is Uint64 without its top bit, as in math/rand.
func (s *stripeSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
