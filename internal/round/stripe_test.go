package round

import (
	"math"
	"math/rand"
	"testing"
)

// stripeSeeds returns the seeds the stream test covers: math/rand's
// reduction corners (0, ±(2³¹−1) and its multiples, the replacement seed
// 89482311, the int64 extremes) and random seeds of both signs.
func stripeSeeds(n int) []int64 {
	seeds := []int64{0, 1, -1, parkMiller, -parkMiller, 2 * parkMiller, -2 * parkMiller,
		parkMiller - 1, parkMiller + 1, 89482311, math.MinInt64, math.MaxInt64, math.MinInt64 + 1}
	rng := rand.New(rand.NewSource(30))
	for len(seeds) < n {
		s := rng.Int63()
		if len(seeds)%2 == 0 {
			s = -s
		}
		if len(seeds)%5 == 0 {
			s %= 1 << 32
		}
		seeds = append(seeds, s)
	}
	return seeds
}

// TestStripeSourceMatchesMathRand pins stripeSource to math/rand's own
// source: for every seed, one stripeSource reseeded in place must draw
// NewSource(seed)'s stream through Uint64 and Int63, and through a
// rand.Rand (Int63n, Uint32, Float64), as the encode stripes use it.
func TestStripeSourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	var src stripeSource
	rng := rand.New(&src)
	for _, seed := range stripeSeeds(1024) {
		src.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for d := 0; d < draws; d++ {
			if d%3 == 0 {
				if got, want := src.Int63(), ref.Int63(); got != want {
					t.Fatalf("seed %d draw %d: Int63 %d, want %d", seed, d, got, want)
				}
			} else if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %d, want %d", seed, d, got, want)
			}
		}

		rng.Seed(seed)
		refRng := rand.New(rand.NewSource(seed))
		for d := 0; d < draws; d++ {
			switch n := int64(d%97) + 1 + int64(d%7)<<40; d % 3 {
			case 0:
				if got, want := rng.Int63n(n), refRng.Int63n(n); got != want {
					t.Fatalf("seed %d draw %d: Int63n(%d) %d, want %d", seed, d, n, got, want)
				}
			case 1:
				if got, want := rng.Uint32(), refRng.Uint32(); got != want {
					t.Fatalf("seed %d draw %d: Uint32 %d, want %d", seed, d, got, want)
				}
			default:
				if got, want := rng.Float64(), refRng.Float64(); got != want {
					t.Fatalf("seed %d draw %d: Float64 %v, want %v", seed, d, got, want)
				}
			}
		}
	}
}

// seedSink keeps the seeded state live in BenchmarkStripeSourceSeed.
var seedSink int64

// BenchmarkStripeSourceSeed times one reseed of the encode stripes'
// source beside math/rand's own Seed, the cost every bidder of a round
// pays once.
func BenchmarkStripeSourceSeed(b *testing.B) {
	seeds := stripeSeeds(1024)
	b.Run("stripe", func(b *testing.B) {
		var src stripeSource
		for i := 0; i < b.N; i++ {
			src.Seed(seeds[i%len(seeds)])
		}
		seedSink = src.Int63()
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(0)
		for i := 0; i < b.N; i++ {
			src.Seed(seeds[i%len(seeds)])
		}
		seedSink = src.Int63()
	})
}
