// Package mask provides the cryptographic layer of LPPA: keyed masking of
// numericalized prefixes with HMAC-SHA256, fixed-size digest sets with
// padding (so set cardinality leaks nothing), and authenticated symmetric
// sealing (AES-GCM) for the bid ciphertexts that only the TTP can open.
//
// The security property the protocol relies on is that HMAC under an
// unknown key is a pseudorandom function: the auctioneer can test equality
// of masked prefixes (and therefore evaluate prefix-membership range
// predicates) but learns nothing about the underlying values beyond the
// outcomes of those equality tests.
package mask

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math/rand"
	"slices"
	"sort"
)

// DigestSize is the size of a masked prefix digest in bytes. Digests are
// truncated HMAC-SHA256 outputs; 16 bytes (128 bits) keeps collision
// probability negligible at auction scale while halving transcript size.
const DigestSize = 16

// Digest is a masked (keyed-hashed) numericalized prefix. Digest is
// comparable and therefore usable as a map key, which the auctioneer's
// interning dictionary depends on.
type Digest [DigestSize]byte

// String renders the digest in hex for logs and debugging.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:]) }

// Key is an HMAC key. Keys are distributed by the TTP to bidders and are
// never revealed to the auctioneer.
type Key []byte

// ErrShortKey is returned when a key is too short to be credible.
var ErrShortKey = errors.New("mask: key shorter than 16 bytes")

// MinKeyLen is the minimum accepted HMAC key length in bytes.
const MinKeyLen = 16

// Validate checks the key length.
func (k Key) Validate() error {
	if len(k) < MinKeyLen {
		return fmt.Errorf("%w (got %d bytes)", ErrShortKey, len(k))
	}
	return nil
}

// Masker computes digests of numericalized prefixes under a fixed key.
//
// Concurrency contract: a Masker keeps a resettable HMAC state and reuses
// internal encoding and digest buffers across calls, so the steady-state
// Mask path performs no heap allocation. That state makes a single Masker
// NOT safe for concurrent use: goroutines must not share one. Use Clone to
// obtain an independent Masker over the same key for each goroutine (the
// bidder-side worker pools, e.g. core.NewLocationSubmissions, do exactly
// that). Construction is still cheap — one HMAC key schedule.
type Masker struct {
	key Key
	mac hash.Hash         // resettable HMAC-SHA256 state
	buf [8]byte           // fixed-width message encoding, reused
	sum [sha256.Size]byte // full HMAC output scratch, reused
	// memo caches Mask(v) for v < len(memo) once Memoize is called; bit v
	// of filled marks the entries computed so far.
	memo   []Digest
	filled []uint64
}

// maxMemoBits caps a Masker's digest table at 2^16 entries (1 MiB).
// Numericalized prefixes of width-w values lie in [0, 2^(w+1)); for w ≥ 16
// the table covers the bottom 2^16 of that range and values above it are
// hashed directly.
const maxMemoBits = 16

// NewMasker returns a Masker for the given key.
func NewMasker(key Key) (*Masker, error) {
	if err := key.Validate(); err != nil {
		return nil, err
	}
	return &Masker{key: key, mac: hmac.New(sha256.New, key)}, nil
}

// Clone returns an independent Masker over the same key, for per-goroutine
// use. Digests from a clone are identical to the original's; the clone
// starts without a digest table.
func (m *Masker) Clone() *Masker {
	return &Masker{key: m.key, mac: hmac.New(sha256.New, m.key)}
}

// Memoize gives the masker a lazily filled digest table over the
// numericalized prefixes of width-w values, [0, 2^(w+1)) up to the
// 2^16-entry cap, so each distinct prefix is hashed once however many
// bidders the masker serves. Digests are unchanged. It is a no-op once a
// table exists.
//
// The table is key-equivalent material: with it anyone can mask any value
// in its range or invert a digest. It must stay inside a key holder's
// masker and die with it — a bidder-side encoder, or the TTP's charge
// batch — and never reach the auctioneer, epoch state or the wire
// (DESIGN.md §5b).
func (m *Masker) Memoize(w int) {
	if m.memo != nil {
		return
	}
	n := 1 << maxMemoBits
	if w+1 < maxMemoBits {
		n = 1 << (w + 1)
	}
	m.memo = make([]Digest, n)
	m.filled = make([]uint64, (n+63)/64)
}

// Mask returns H_g(v) = HMAC_g(O(v)): the digest of a numericalized prefix
// v. The message is the fixed-width big-endian encoding of v, so all masked
// prefixes have identical message length (the paper requires random padding
// digests to be indistinguishable by length).
func (m *Masker) Mask(numericalized uint64) Digest {
	if numericalized >= uint64(len(m.memo)) {
		return m.hash(numericalized)
	}
	word, bit := numericalized/64, uint64(1)<<(numericalized%64)
	if m.filled[word]&bit == 0 {
		m.memo[numericalized] = m.hash(numericalized)
		m.filled[word] |= bit
	}
	return m.memo[numericalized]
}

func (m *Masker) hash(numericalized uint64) Digest {
	m.mac.Reset()
	binary.BigEndian.PutUint64(m.buf[:], numericalized)
	m.mac.Write(m.buf[:])
	sum := m.mac.Sum(m.sum[:0])
	var d Digest
	copy(d[:], sum)
	return d
}

// Set is a collection of distinct digests, kept as one flat slice in
// insertion order. The zero value is an empty set ready to use.
//
// Protocol sets are small — a prefix family has w+1 members and a padded
// range cover 2w−2 — so membership is a linear scan: no hashing, one
// allocation per set, and bulk consumers (the auctioneer's interner, batch
// assemblers, wire encoders) read the members in place.
type Set struct {
	members []Digest
}

// linearDedupMax is the input size up to which NewSet deduplicates by
// linear scan. Larger inputs come only from wire peers (up to
// transport.MaxDigestsPerSet), and a transient map keeps their cost linear.
const linearDedupMax = 64

// NewSet builds a Set from digests, dropping duplicates. Members keep the
// order of their first occurrence in ds.
func NewSet(ds []Digest) Set {
	s := Set{members: make([]Digest, 0, len(ds))}
	if len(ds) <= linearDedupMax {
		for _, d := range ds {
			s.Add(d)
		}
		return s
	}
	seen := make(map[Digest]struct{}, len(ds))
	for _, d := range ds {
		if _, dup := seen[d]; !dup {
			seen[d] = struct{}{}
			s.members = append(s.members, d)
		}
	}
	return s
}

// Len reports the number of distinct digests in the set.
func (s Set) Len() int { return len(s.members) }

// Contains reports whether d is in the set.
func (s Set) Contains(d Digest) bool {
	for _, m := range s.members {
		if m == d {
			return true
		}
	}
	return false
}

// Add inserts d into the set.
func (s *Set) Add(d Digest) {
	if !s.Contains(d) {
		s.members = append(s.members, d)
	}
}

// Digests returns the members in insertion order.
func (s Set) Digests() []Digest {
	return s.AppendDigests(make([]Digest, 0, len(s.members)))
}

// AppendDigests appends the members to dst (in insertion order) and
// returns the extended slice. Batch assemblers (e.g. the auctioneer's
// charge-request builder) use it to collect many sets into one flat
// allocation.
func (s Set) AppendDigests(dst []Digest) []Digest {
	return append(dst, s.members...)
}

// SortedDigests returns the members in lexicographic byte order. Wire
// encoders use it so serialized sets do not depend on how a set was built;
// sorting reveals nothing an unordered dump would not, since digests are
// already key-dependent pseudorandom values.
func (s Set) SortedDigests() []Digest {
	ds := s.Digests()
	SortDigests(ds)
	return ds
}

// SortDigests sorts ds in place in lexicographic byte order.
func SortDigests(ds []Digest) {
	sort.Slice(ds, func(i, j int) bool {
		return bytes.Compare(ds[i][:], ds[j][:]) < 0
	})
}

// Intersects reports whether s and other share at least one digest. This is
// the only operation the auctioneer performs on masked location and bid
// data: prefix membership verification reduces range queries to exactly
// this check.
func (s Set) Intersects(other Set) bool {
	for _, d := range s.members {
		if other.Contains(d) {
			return true
		}
	}
	return false
}

// PadTo grows the set to exactly target members by inserting random digests
// drawn from rng. Padding hides the true cardinality of range-prefix sets,
// which would otherwise leak bid magnitude (section IV.C of the paper: all
// range covers are padded to 2w-2 elements). Random digests collide with
// genuine HMAC outputs only with probability 2^-128 per draw, so padding
// does not perturb intersection results. PadTo is a no-op if the set
// already has at least target members.
//
// Each pad byte is byte(rng.Int63() >> 32): the value, and the rng
// consumption, of rng.Intn(256), which reduces to Int31() & 255 with
// Int31() = Int63() >> 32.
func (s *Set) PadTo(target int, rng *rand.Rand) {
	if len(s.members) >= target {
		return
	}
	s.members = slices.Grow(s.members, target-len(s.members))
	for len(s.members) < target {
		var d Digest
		for i := range d {
			d[i] = byte(rng.Int63() >> 32)
		}
		s.Add(d)
	}
}

// MaskSet masks all numericalized prefixes in vs and collects them into a
// Set.
func (m *Masker) MaskSet(vs []uint64) Set {
	return m.MaskSetCap(vs, len(vs))
}

// MaskSetCap is MaskSet with room for capacity members, so a set that is
// padded next (PadTo) keeps its one allocation.
func (m *Masker) MaskSetCap(vs []uint64, capacity int) Set {
	s := Set{members: make([]Digest, 0, max(capacity, len(vs)))}
	for _, v := range vs {
		s.Add(m.Mask(v))
	}
	return s
}
