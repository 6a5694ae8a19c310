package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"lppa/internal/mask"
)

// sameSubmission reports whether two bid submissions are byte-identical:
// Family and Range digests in the same order (pads included) and equal
// Sealed bytes.
func sameSubmission(a, b *BidSubmission) bool {
	if len(a.Channels) != len(b.Channels) {
		return false
	}
	for r := range a.Channels {
		x, y := &a.Channels[r], &b.Channels[r]
		if !slices.Equal(x.Family.Digests(), y.Family.Digests()) ||
			!slices.Equal(x.Range.Digests(), y.Range.Digests()) ||
			!bytes.Equal(x.Sealed, y.Sealed) {
			return false
		}
	}
	return true
}

// TestBidEncoderReuseByteIdentical pins Rebind: one encoder serving many
// bidders in turn produces exactly the submissions of a fresh encoder per
// bidder, for the advanced scheme with and without a disguise sampler (and
// with both on one encoder), for the basic scheme, and for both rng shapes
// the round uses — a seeded rng per bidder, and one rng threaded through
// every bidder.
func TestBidEncoderReuseByteIdentical(t *testing.T) {
	p := testParams()
	ring := testRing(t, p, 5, 8)
	sampler, err := NewDisguiseSampler(DisguisePolicy{P0: 0.6, Decay: 0.95}, p.BMax)
	if err != nil {
		t.Fatal(err)
	}
	const n = 60
	bids := make([][]uint64, n)
	pick := rand.New(rand.NewSource(7))
	for i := range bids {
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if pick.Intn(4) > 0 {
				bids[i][r] = uint64(pick.Intn(int(p.BMax))) + 1
			}
		}
	}
	schemes := []struct {
		name    string
		basic   bool
		sampler func(i int) *DisguiseSampler
	}{
		{"advanced-disguise", false, func(int) *DisguiseSampler { return sampler }},
		{"advanced-honest", false, func(int) *DisguiseSampler { return nil }},
		{"advanced-mixed", false, func(i int) *DisguiseSampler {
			if i%3 == 0 {
				return nil
			}
			return sampler
		}},
		{"basic", true, func(int) *DisguiseSampler { return nil }},
	}
	fresh := func(basic bool, s *DisguiseSampler, rng *rand.Rand) *BidEncoder {
		var enc *BidEncoder
		var err error
		if basic {
			enc, err = NewBasicBidEncoder(p, ring, rng)
		} else {
			enc, err = NewBidEncoder(p, ring, s, rng)
		}
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for _, sc := range schemes {
		for _, shared := range []bool{false, true} {
			rngFresh, rngReused := rand.New(rand.NewSource(99)), rand.New(rand.NewSource(99))
			var reused *BidEncoder
			for i := 0; i < n; i++ {
				rf, rr := rngFresh, rngReused
				if !shared {
					rf, rr = rand.New(rand.NewSource(int64(i))), rand.New(rand.NewSource(int64(i)))
				}
				want, err := fresh(sc.basic, sc.sampler(i), rf).Encode(bids[i], rf)
				if err != nil {
					t.Fatal(err)
				}
				if reused == nil {
					reused = fresh(sc.basic, sc.sampler(i), rr)
				} else {
					reused.Rebind(sc.sampler(i), rr)
				}
				got, err := reused.Encode(bids[i], rr)
				if err != nil {
					t.Fatal(err)
				}
				if !sameSubmission(got, want) {
					t.Fatalf("%s shared=%v: bidder %d differs from a fresh encoder", sc.name, shared, i)
				}
				if rf.Int63() != rr.Int63() {
					t.Fatalf("%s shared=%v: bidder %d left the rng in a different state", sc.name, shared, i)
				}
			}
		}
	}
}

// TestLocationEncoderReuseByteIdentical pins LocationEncoder reuse (digest
// table on from the second point) to one-shot NewLocationSubmission calls,
// digest order included.
func TestLocationEncoderReuseByteIdentical(t *testing.T) {
	p := testParams()
	ring := testRing(t, p, 5, 8)
	enc, err := NewLocationEncoder(p, ring)
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b mask.Set) bool { return slices.Equal(a.Digests(), b.Digests()) }
	for i, pt := range randomPoints(p, 200, 3) {
		got, err := enc.Encode(pt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := NewLocationSubmission(p, ring, pt)
		if err != nil {
			t.Fatal(err)
		}
		if !same(got.XFamily, want.XFamily) || !same(got.YFamily, want.YFamily) ||
			!same(got.XRange, want.XRange) || !same(got.YRange, want.YRange) {
			t.Fatalf("point %d %+v: reused encoder differs from a fresh one", i, pt)
		}
	}
}

// TestBidEncoderAllocatesOnlyWhatItKeeps pins the bidder half's allocation
// budget: once an encoder is warm, Rebind plus Encode for one 8-channel
// bidder allocates exactly what its submission keeps — the submission,
// its channel slice, and per channel a family, a range and a sealed value
// (2 + 3·8 = 26 objects). Prefix scratch, pads and the sealer's plaintext
// must not allocate.
func TestBidEncoderAllocatesOnlyWhatItKeeps(t *testing.T) {
	p := Params{Channels: 8, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring := testRing(t, p, 5, 8)
	sampler, err := NewDisguiseSampler(DisguisePolicy{P0: 0.6, Decay: 0.95}, p.BMax)
	if err != nil {
		t.Fatal(err)
	}
	bids := []uint64{0, 17, 100, 0, 1, 55, 0, 83}
	rng := rand.New(rand.NewSource(1))
	enc, err := NewBidEncoder(p, ring, sampler, rng)
	if err != nil {
		t.Fatal(err)
	}
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		rng.Seed(seed)
		enc.Rebind(sampler, rng)
		if _, err := enc.Encode(bids, rng); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(2 + 3*p.Channels); allocs != want {
		t.Errorf("Rebind+Encode allocates %.1f objects per bidder, want %.0f", allocs, want)
	}
}
