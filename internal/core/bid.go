package core

import (
	"fmt"
	"math/rand"

	"lppa/internal/mask"
	"lppa/internal/prefix"
)

// ChannelBid is one bidder's masked bid on one channel.
type ChannelBid struct {
	// Family is H_gb_r(G(scaled)), the masked prefix family of the
	// blinded bid value — for a disguised zero, of the disguise value.
	Family mask.Set
	// Range is H_gb_r(Q([scaled, scaledMax])), padded to 2w−2 digests.
	Range mask.Set
	// Sealed is the gc-encryption of the *true* blinded value (the paper
	// keeps the TTP ciphertext unaltered when disguising), relayed
	// opaquely to the TTP at charging time.
	Sealed []byte
}

// BidSubmission is a bidder's full masked bid vector.
type BidSubmission struct {
	Channels []ChannelBid
}

// encodeOptions selects between the basic scheme (section IV.B: shared
// key, no blinding, no disguise, no padding) and the advanced scheme
// (section IV.C). The basic scheme exists for tests, the ablation
// benchmarks, and as documentation of why the advanced scheme is needed.
type encodeOptions struct {
	advanced bool
	disguise *DisguiseSampler // nil disables disguising even in advanced mode
}

// BidEncoder turns plaintext bid vectors into submissions. It serves one
// bidder at a time and is not safe for concurrent use. Rebind hands it to
// the next bidder, so a worker encoding many bidders builds the channel
// maskers and the sealer once.
type BidEncoder struct {
	params    Params
	ring      *mask.KeyRing
	sealer    *mask.Sealer
	maskers   []*mask.Masker // per channel (advanced) or a single shared entry (basic)
	opts      encodeOptions
	width     int    // prefix width w of the encoded-value domain
	domainMax uint64 // top of the encoded-value domain
	scratch   prefixScratch
}

// NewBidEncoder returns an advanced-scheme encoder. disguise may be nil to
// submit honest zeros (the paper's p0 = 1 corner).
func NewBidEncoder(params Params, ring *mask.KeyRing, disguise *DisguiseSampler, rng *rand.Rand) (*BidEncoder, error) {
	return newBidEncoder(params, ring, encodeOptions{advanced: true, disguise: disguise}, rng)
}

// NewBasicBidEncoder returns a basic-scheme encoder: every channel shares
// gb_0, bids are neither blinded nor disguised, and range sets are not
// padded. Its leaks are demonstrated in the package tests and ablation
// benchmarks.
func NewBasicBidEncoder(params Params, ring *mask.KeyRing, rng *rand.Rand) (*BidEncoder, error) {
	return newBidEncoder(params, ring, encodeOptions{}, rng)
}

func newBidEncoder(params Params, ring *mask.KeyRing, opts encodeOptions, rng *rand.Rand) (*BidEncoder, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	if ring.Channels() < params.Channels {
		return nil, fmt.Errorf("core: key ring has %d channel keys, need %d", ring.Channels(), params.Channels)
	}
	sealer, err := mask.NewSealer(ring.GC, rng)
	if err != nil {
		return nil, fmt.Errorf("core: sealer: %w", err)
	}
	enc := &BidEncoder{params: params, ring: ring, sealer: sealer, opts: opts, domainMax: params.BMax}
	if opts.advanced {
		enc.domainMax = params.ScaledMax(ring)
		enc.maskers = make([]*mask.Masker, params.Channels)
		for r := range enc.maskers {
			m, err := mask.NewMasker(ring.GB[r])
			if err != nil {
				return nil, fmt.Errorf("core: masker for channel %d: %w", r, err)
			}
			enc.maskers[r] = m
		}
	} else {
		m, err := mask.NewMasker(ring.GB[0])
		if err != nil {
			return nil, fmt.Errorf("core: shared masker: %w", err)
		}
		enc.maskers = []*mask.Masker{m}
	}
	enc.width = prefix.WidthFor(enc.domainMax)
	return enc, nil
}

// Rebind hands the encoder to the next bidder: its disguise sampler (the
// basic scheme ignores it) and its rng, which restarts the sealer's nonce
// sequence exactly as a fresh encoder's. Submissions are byte-identical to
// those of NewBidEncoder (or NewBasicBidEncoder) called with the same
// arguments.
//
// Rebinding also gives every channel masker a digest table (Masker.Memoize),
// so a prefix is hashed once per encoder rather than once per bidder. A
// one-shot encoder, never rebound, stays table-free. The table is
// key-equivalent and dies with the encoder.
func (e *BidEncoder) Rebind(disguise *DisguiseSampler, rng *rand.Rand) {
	for _, m := range e.maskers {
		m.Memoize(e.width)
	}
	e.opts.disguise = disguise
	e.sealer.Reset(rng)
}

func (e *BidEncoder) maskerFor(r int) *mask.Masker {
	if e.opts.advanced {
		return e.maskers[r]
	}
	return e.maskers[0]
}

// blind maps a displayed value into its blinded slot:
// cr·v + uniform[0, cr−1].
func (e *BidEncoder) blind(v uint64, rng *rand.Rand) uint64 {
	if e.ring.CR == 1 {
		return v
	}
	return e.ring.CR*v + uint64(rng.Int63n(int64(e.ring.CR)))
}

// Encode converts a plaintext bid vector (one entry per channel, zeros for
// unavailable channels) into a masked submission.
func (e *BidEncoder) Encode(bids []uint64, rng *rand.Rand) (*BidSubmission, error) {
	if len(bids) != e.params.Channels {
		return nil, fmt.Errorf("core: %d bids for %d channels", len(bids), e.params.Channels)
	}
	sub := &BidSubmission{Channels: make([]ChannelBid, len(bids))}
	for r, b := range bids {
		if b > e.params.BMax {
			return nil, fmt.Errorf("core: bid %d on channel %d exceeds bmax %d", b, r, e.params.BMax)
		}
		cb, err := e.encodeOne(r, b, rng)
		if err != nil {
			return nil, err
		}
		sub.Channels[r] = cb
	}
	return sub, nil
}

func (e *BidEncoder) encodeOne(r int, b uint64, rng *rand.Rand) (ChannelBid, error) {
	w, domainMax := e.width, e.domainMax
	masker := e.maskerFor(r)

	if !e.opts.advanced {
		// Basic scheme: encode the raw value directly.
		fam := masker.MaskSet(e.scratch.family(b, w))
		rng2 := masker.MaskSet(e.scratch.cover(b, domainMax, w))
		return ChannelBid{Family: fam, Range: rng2, Sealed: e.sealer.SealValue(b)}, nil
	}

	// Advanced scheme (section IV.C steps i–iii).
	rd := e.ring.RD
	var displayed, trueVal uint64
	switch {
	case b > 0:
		displayed = b + rd
		trueVal = displayed
	default:
		// True value: zero maps uniformly into [0, rd].
		trueVal = uint64(rng.Int63n(int64(rd + 1)))
		displayed = trueVal
		if e.opts.disguise != nil {
			if t, ok := e.opts.disguise.Sample(rng); ok {
				displayed = t + rd // rank like a genuine bid of t
			}
		}
	}

	scaledTrue := e.blind(trueVal, rng)
	scaledShown := scaledTrue
	if displayed != trueVal {
		scaledShown = e.blind(displayed, rng)
	}

	// The range set is allocated at its padded size, so padding never
	// regrows it.
	fam := masker.MaskSet(e.scratch.family(scaledShown, w))
	rset := masker.MaskSetCap(e.scratch.cover(scaledShown, domainMax, w), prefix.MaxCoverSize(w))
	rset.PadTo(prefix.MaxCoverSize(w), rng)
	return ChannelBid{Family: fam, Range: rset, Sealed: e.sealer.SealValue(scaledTrue)}, nil
}

// prefixScratch numericalizes prefix families and covers into slices it
// reuses, so an encoder allocates only the digest sets it keeps. A result
// is valid until the next call.
type prefixScratch struct {
	ps   []prefix.Prefix
	nums []uint64
}

// family returns O(G(x)) for the width-w number x.
func (s *prefixScratch) family(x uint64, w int) []uint64 {
	s.ps = prefix.AppendFamily(s.ps[:0], x, w)
	s.nums = prefix.AppendNumericalized(s.nums[:0], s.ps)
	return s.nums
}

// cover returns O(Q([lo, hi])) over width-w numbers.
func (s *prefixScratch) cover(lo, hi uint64, w int) []uint64 {
	s.ps = prefix.AppendCover(s.ps[:0], lo, hi, w)
	s.nums = prefix.AppendNumericalized(s.nums[:0], s.ps)
	return s.nums
}
