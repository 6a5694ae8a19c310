package mask

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
)

// hmacOracle is H_g(v) computed from scratch, independent of Masker.
func hmacOracle(key Key, v uint64) Digest {
	mac := hmac.New(sha256.New, key)
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], v)
	mac.Write(buf[:])
	var d Digest
	copy(d[:], mac.Sum(nil))
	return d
}

// TestMemoizedMaskerMatchesHMAC pins the digest table to a fresh HMAC for
// every value it covers, on the filling pass and on the cached pass, and for
// values above the table, including above the 2^16-entry cap.
func TestMemoizedMaskerMatchesHMAC(t *testing.T) {
	key := testKey(11)
	for _, w := range []int{1, 7, 10, 20} {
		m, err := NewMasker(key)
		if err != nil {
			t.Fatal(err)
		}
		m.Memoize(w)
		want := min(1<<(w+1), 1<<maxMemoBits)
		if len(m.memo) != want {
			t.Fatalf("w=%d: table has %d entries, want %d", w, len(m.memo), want)
		}
		m.Memoize(w + 3) // a second call keeps the first table
		if len(m.memo) != want {
			t.Fatalf("w=%d: second Memoize resized the table to %d", w, len(m.memo))
		}
		top := uint64(min(1<<(w+1), 1<<12))
		for pass := 0; pass < 2; pass++ {
			for v := uint64(0); v < top; v++ {
				if got := m.Mask(v); got != hmacOracle(key, v) {
					t.Fatalf("w=%d pass=%d: Mask(%d) differs from HMAC", w, pass, v)
				}
			}
		}
		for _, v := range []uint64{uint64(want) - 1, uint64(want), uint64(want) + 1, 1<<(w+1) - 1, 1 << (w + 1), 1 << 40} {
			for pass := 0; pass < 2; pass++ {
				if got := m.Mask(v); got != hmacOracle(key, v) {
					t.Fatalf("w=%d pass=%d: Mask(%d) differs from HMAC", w, pass, v)
				}
			}
		}
		if c := m.Clone(); c.memo != nil {
			t.Fatalf("w=%d: Clone copied the digest table", w)
		}
	}
}

// padToIntn is PadTo as first written, kept as the oracle: a map for
// membership and rng.Intn(256) per pad byte.
func padToIntn(s Set, target int, rng *rand.Rand) []Digest {
	seen := map[Digest]bool{}
	out := s.Digests()
	for _, d := range out {
		seen[d] = true
	}
	for len(out) < target {
		var d Digest
		for i := range d {
			d[i] = byte(rng.Intn(256))
		}
		if seen[d] {
			continue
		}
		seen[d] = true
		out = append(out, d)
	}
	return out
}

// TestPadToMatchesIntnOracle pins PadTo's pad digests, their order, and the
// rng state it leaves behind to the rng.Intn(256) formulation.
func TestPadToMatchesIntnOracle(t *testing.T) {
	m, err := NewMasker(testKey(12))
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 20; seed++ {
		pick := rand.New(rand.NewSource(seed))
		vals := make([]uint64, pick.Intn(12))
		for i := range vals {
			vals[i] = uint64(pick.Intn(64))
		}
		target := pick.Intn(24)
		got, base := m.MaskSet(vals), m.MaskSet(vals)
		rngGot, rngWant := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		got.PadTo(target, rngGot)
		want := padToIntn(base, target, rngWant)
		if !slices.Equal(got.Digests(), want) {
			t.Fatalf("seed %d: PadTo(%d) members differ from the Intn oracle", seed, target)
		}
		if rngGot.Int63() != rngWant.Int63() {
			t.Fatalf("seed %d: PadTo consumed the rng differently from the Intn oracle", seed)
		}
	}
}

// TestNewSetDedupKeepsFirstOccurrence covers both dedup strategies: the
// linear scan for protocol-sized inputs and the transient map for large
// wire inputs.
func TestNewSetDedupKeepsFirstOccurrence(t *testing.T) {
	m, err := NewMasker(testKey(13))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{5, linearDedupMax, linearDedupMax + 1, 500} {
		var in, want []Digest
		for i := 0; i < n; i++ {
			d := m.Mask(uint64(i))
			want = append(want, d)
			in = append(in, d, m.Mask(uint64(i/2))) // every value repeats
		}
		s := NewSet(in)
		if !slices.Equal(s.Digests(), want) {
			t.Fatalf("n=%d: NewSet kept %d members, want %d in first-occurrence order", n, s.Len(), len(want))
		}
	}
}
