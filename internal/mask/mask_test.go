package mask

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"lppa/internal/prefix"
)

func testKey(b byte) Key {
	k := make(Key, 32)
	for i := range k {
		k[i] = b
	}
	return k
}

func TestMaskerDeterministicAndKeyed(t *testing.T) {
	m1, err := NewMasker(testKey(1))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewMasker(testKey(2))
	if err != nil {
		t.Fatal(err)
	}
	if m1.Mask(42) != m1.Mask(42) {
		t.Error("same key, same input: digests differ")
	}
	if m1.Mask(42) == m2.Mask(42) {
		t.Error("different keys produced equal digests")
	}
	if m1.Mask(42) == m1.Mask(43) {
		t.Error("different inputs produced equal digests")
	}
}

func TestNewMaskerRejectsShortKey(t *testing.T) {
	if _, err := NewMasker(Key("short")); err == nil {
		t.Fatal("expected error for short key")
	}
}

func TestSetIntersects(t *testing.T) {
	m, _ := NewMasker(testKey(3))
	a := m.MaskSet([]uint64{1, 2, 3})
	b := m.MaskSet([]uint64{3, 4})
	c := m.MaskSet([]uint64{4, 5})
	if !a.Intersects(b) {
		t.Error("a∩b should be nonempty")
	}
	if !b.Intersects(a) {
		t.Error("Intersects must be symmetric")
	}
	if a.Intersects(c) {
		t.Error("a∩c should be empty")
	}
	var empty Set
	if empty.Intersects(a) || a.Intersects(empty) {
		t.Error("empty set intersects nothing")
	}
}

func TestSetAddContainsLen(t *testing.T) {
	var s Set
	m, _ := NewMasker(testKey(4))
	d := m.Mask(7)
	if s.Contains(d) || s.Len() != 0 {
		t.Error("zero set should be empty")
	}
	s.Add(d)
	s.Add(d)
	if !s.Contains(d) || s.Len() != 1 {
		t.Errorf("after Add: len=%d contains=%v", s.Len(), s.Contains(d))
	}
	if got := len(s.Digests()); got != 1 {
		t.Errorf("Digests() len = %d", got)
	}
}

func TestPadToHidesCardinalityWithoutChangingIntersection(t *testing.T) {
	m, _ := NewMasker(testKey(5))
	rng := rand.New(rand.NewSource(7))
	a := m.MaskSet([]uint64{10, 20})
	b := m.MaskSet([]uint64{30, 40})
	aPad := m.MaskSet([]uint64{10, 20})
	aPad.PadTo(30, rng)
	if aPad.Len() != 30 {
		t.Fatalf("padded len = %d, want 30", aPad.Len())
	}
	if aPad.Intersects(b) != a.Intersects(b) {
		t.Error("padding changed intersection outcome")
	}
	c := m.MaskSet([]uint64{20})
	if !aPad.Intersects(c) {
		t.Error("padding destroyed genuine intersection")
	}
	// No-op when already large enough.
	aPad.PadTo(5, rng)
	if aPad.Len() != 30 {
		t.Error("PadTo shrank or grew an already-large set")
	}
}

// TestMaskedMembershipEquivalence is the central soundness property: the
// masked range-query protocol must decide interval membership exactly like
// direct comparison.
func TestMaskedMembershipEquivalence(t *testing.T) {
	const w = 12
	m, _ := NewMasker(testKey(6))
	prop := func(xv, av, bv uint16) bool {
		x := uint64(xv) % (1 << w)
		lo := uint64(av) % (1 << w)
		hi := uint64(bv) % (1 << w)
		if lo > hi {
			lo, hi = hi, lo
		}
		fam := m.MaskSet(prefix.Numericalized(prefix.Family(x, w)))
		cov := m.MaskSet(prefix.Numericalized(prefix.Cover(lo, hi, w)))
		return fam.Intersects(cov) == (lo <= x && x <= hi)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSealRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	s, err := NewSealer(make(Key, 16), rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint64{0, 1, 42, 1 << 40, ^uint64(0)} {
		ct := s.SealValue(v)
		if len(ct) != SealedValueLen {
			t.Fatalf("ciphertext len = %d, want %d", len(ct), SealedValueLen)
		}
		got, err := s.OpenValue(ct)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if got != v {
			t.Errorf("round trip = %d, want %d", got, v)
		}
	}
}

func TestSealDistinctCiphertextsForEqualPlaintexts(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	s, _ := NewSealer(make(Key, 16), rng)
	a := s.SealValue(99)
	b := s.SealValue(99)
	if bytes.Equal(a, b) {
		t.Error("equal plaintexts sealed to equal ciphertexts")
	}
}

func TestSealRejectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s, _ := NewSealer(make(Key, 16), rng)
	ct := s.SealValue(7)
	ct[len(ct)-1] ^= 0xff
	if _, err := s.OpenValue(ct); err == nil {
		t.Error("tampered ciphertext accepted")
	}
	if _, err := s.OpenValue(ct[:10]); err == nil {
		t.Error("truncated ciphertext accepted")
	}
}

func TestSealerRejectsBadKey(t *testing.T) {
	if _, err := NewSealer(make(Key, 10), rand.New(rand.NewSource(1))); err == nil {
		t.Error("expected error for 10-byte key")
	}
}

func TestNewKeyRing(t *testing.T) {
	kr, err := NewKeyRing(5, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if kr.Channels() != 5 {
		t.Errorf("channels = %d, want 5", kr.Channels())
	}
	if len(kr.G0) != 32 || len(kr.GC) != 16 {
		t.Errorf("key lengths g0=%d gc=%d", len(kr.G0), len(kr.GC))
	}
	seen := map[string]bool{string(kr.G0): true, string(kr.GC): true}
	for _, gb := range kr.GB {
		if seen[string(gb)] {
			t.Error("duplicate key in ring")
		}
		seen[string(gb)] = true
	}
	if kr.RD != 3 || kr.CR != 8 {
		t.Errorf("blinding parameters rd=%d cr=%d, want 3 and 8", kr.RD, kr.CR)
	}
	other, err := NewKeyRing(5, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if string(kr.G0) == string(other.G0) {
		t.Error("two rings drew identical keys")
	}
}

func TestDeriveKeyRingDeterministic(t *testing.T) {
	a, err := DeriveKeyRing([]byte("seed"), 3, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := DeriveKeyRing([]byte("seed"), 3, 2, 4)
	c, _ := DeriveKeyRing([]byte("other"), 3, 2, 4)
	if !bytes.Equal(a.G0, b.G0) || !bytes.Equal(a.GB[2], b.GB[2]) || !bytes.Equal(a.GC, b.GC) {
		t.Error("same seed produced different rings")
	}
	if bytes.Equal(a.G0, c.G0) {
		t.Error("different seeds produced same g0")
	}
	if bytes.Equal(a.GB[0], a.GB[1]) {
		t.Error("per-channel keys must differ")
	}
}

func TestKeyRingParamValidation(t *testing.T) {
	if _, err := NewKeyRing(0, 1, 1); err == nil {
		t.Error("channels=0 accepted")
	}
	if _, err := DeriveKeyRing([]byte("s"), 1, 0, 1); err == nil {
		t.Error("rd=0 accepted")
	}
	if _, err := DeriveKeyRing([]byte("s"), 1, 1, 0); err == nil {
		t.Error("cr=0 accepted")
	}
}
