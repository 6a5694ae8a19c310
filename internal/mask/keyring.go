package mask

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// KeyRing is the secret material the TTP generates and distributes to
// bidders at the start of an auction round. The auctioneer never sees it.
//
//   - G0:  HMAC key for location prefixes (section IV.A).
//   - GB:  per-channel HMAC keys gb_1..gb_k for bid prefixes; distinct keys
//     prevent cross-channel ciphertext comparison (section IV.C).
//   - GC:  symmetric key sealing bid values for the TTP (section IV.B).
//   - RD:  additive offset; a zero bid is remapped uniformly into [0, RD]
//     so the most frequent plaintext no longer dominates the ciphertext
//     histogram (section IV.C).
//   - CR:  multiplicative blinding; price x maps uniformly into
//     [CR·x, CR·(x+1)-1] so equal prices seal to values that decrypt
//     differently, preventing plaintext-ciphertext pair reuse after
//     charging (section V.B).
type KeyRing struct {
	G0 Key
	GB []Key
	GC Key
	RD uint64
	CR uint64
}

// Key ring size constants.
const (
	hmacKeyLen = 32
	sealKeyLen = 16
)

// Errors for key-ring parameter validation.
var (
	ErrNoChannels = errors.New("mask: key ring needs at least one channel")
	ErrBadRD      = errors.New("mask: rd must be at least 1")
	ErrBadCR      = errors.New("mask: cr must be at least 1")
)

// NewKeyRing draws a fresh key ring from crypto/rand. rd and cr are
// protocol parameters chosen by the TTP (the paper keeps them secret from
// the auctioneer along with the keys).
func NewKeyRing(channels int, rd, cr uint64) (*KeyRing, error) {
	return newKeyRingFrom(rand.Reader, channels, rd, cr)
}

// DeriveKeyRing deterministically expands a master seed into a full key
// ring using HMAC-SHA256 as a KDF. Experiments use this to make runs
// reproducible; the derived keys are still unpredictable to any party not
// holding the seed.
func DeriveKeyRing(seed []byte, channels int, rd, cr uint64) (*KeyRing, error) {
	if err := validateRingParams(channels, rd, cr); err != nil {
		return nil, err
	}
	kr := &KeyRing{
		G0: deriveKey(seed, "g0", 0, hmacKeyLen),
		GB: make([]Key, channels),
		GC: deriveKey(seed, "gc", 0, sealKeyLen),
		RD: rd,
		CR: cr,
	}
	for r := range kr.GB {
		kr.GB[r] = deriveKey(seed, "gb", uint64(r), hmacKeyLen)
	}
	return kr, nil
}

func validateRingParams(channels int, rd, cr uint64) error {
	if channels < 1 {
		return fmt.Errorf("%w (got %d)", ErrNoChannels, channels)
	}
	if rd < 1 {
		return ErrBadRD
	}
	if cr < 1 {
		return ErrBadCR
	}
	return nil
}

func newKeyRingFrom(r io.Reader, channels int, rd, cr uint64) (*KeyRing, error) {
	if err := validateRingParams(channels, rd, cr); err != nil {
		return nil, err
	}
	kr := &KeyRing{
		G0: make(Key, hmacKeyLen),
		GB: make([]Key, channels),
		GC: make(Key, sealKeyLen),
		RD: rd,
		CR: cr,
	}
	if _, err := io.ReadFull(r, kr.G0); err != nil {
		return nil, fmt.Errorf("mask: draw g0: %w", err)
	}
	if _, err := io.ReadFull(r, kr.GC); err != nil {
		return nil, fmt.Errorf("mask: draw gc: %w", err)
	}
	for i := range kr.GB {
		kr.GB[i] = make(Key, hmacKeyLen)
		if _, err := io.ReadFull(r, kr.GB[i]); err != nil {
			return nil, fmt.Errorf("mask: draw gb_%d: %w", i, err)
		}
	}
	return kr, nil
}

func deriveKey(seed []byte, label string, index uint64, n int) Key {
	mac := hmac.New(sha256.New, seed)
	mac.Write([]byte(label))
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], index)
	mac.Write(buf[:])
	out := mac.Sum(nil)
	// All current key lengths fit in one SHA-256 block.
	return Key(out[:n])
}

// Channels reports the number of per-channel bid keys.
func (kr *KeyRing) Channels() int { return len(kr.GB) }
