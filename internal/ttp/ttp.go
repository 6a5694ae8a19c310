// Package ttp implements the periodically-available Trusted Third Party of
// LPPA. The TTP generates and escrows all secret material (it is the only
// party besides the bidders holding the keys), and at charging time opens
// the winners' sealed bids, unblinds them, voids disguised zeros, verifies
// that the winning price matches the masked prefixes used during the
// auction, and returns the charges to the auctioneer: first price, or
// second price when a request asks for it.
//
// Batch processing (ProcessBatch) models the paper's section V.C.2: the
// auctioneer accumulates several auctions' worth of charge requests and
// submits them during one TTP online window.
package ttp

import (
	"fmt"
	"math/rand"
	"slices"

	"lppa/internal/core"
	"lppa/internal/mask"
	"lppa/internal/prefix"
)

// TTP holds the escrowed key ring for one auction round.
type TTP struct {
	params Params
	ring   *mask.KeyRing
	sealer *mask.Sealer
}

// Params mirrors core.Params; aliased so callers pass one value to both.
type Params = core.Params

// FromRing creates a TTP around a key ring: a fresh one from
// mask.NewKeyRing, or one experiments derive deterministically
// (mask.DeriveKeyRing).
func FromRing(params Params, ring *mask.KeyRing, rng *rand.Rand) (*TTP, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	sealer, err := mask.NewSealer(ring.GC, rng)
	if err != nil {
		return nil, fmt.Errorf("ttp: sealer: %w", err)
	}
	return &TTP{params: params, ring: ring, sealer: sealer}, nil
}

// Ring exposes the key ring for distribution to bidders. In the deployed
// system this happens over a secure channel the auctioneer cannot read;
// in-process callers just share the pointer.
func (t *TTP) Ring() *mask.KeyRing { return t.ring }

// ChargeResult is the TTP's verdict on one awarded channel.
type ChargeResult struct {
	Bidder  int
	Channel int
	// Valid is false when the winning bid was a (possibly disguised)
	// zero: the award is void and the channel goes unsold this round.
	Valid bool
	// Price is the charge for valid awards: the true bid under first
	// price, the runner-up's true bid (or zero) under second price.
	Price uint64
	// Err records a protocol violation: unopenable ciphertext or a
	// price/prefix mismatch (a bidder showing one price to the auction
	// and another to the cashier). Violations void the award.
	Err error
}

// Process opens and adjudicates a single charge request.
func (t *TTP) Process(req core.ChargeRequest) ChargeResult {
	return t.process(req, make([]*mask.Masker, t.ring.Channels()))
}

// process adjudicates req, verifying families with maskers[channel], which
// it builds on first use. The maskers are not safe for concurrent use, so
// they belong to one Process or ProcessBatch call: the TTP server runs
// batches from concurrent connections on one TTP.
func (t *TTP) process(req core.ChargeRequest, maskers []*mask.Masker) ChargeResult {
	res := ChargeResult{Bidder: req.Bidder, Channel: req.Channel}
	scaled, err := t.sealer.OpenValue(req.Sealed)
	if err != nil {
		res.Err = fmt.Errorf("ttp: open sealed bid: %w", err)
		return res
	}
	displayed := scaled / t.ring.CR
	if displayed <= t.ring.RD {
		// A true zero (mapped into [0, rd]) won: notify the auctioneer
		// the award is invalid (section V.B).
		return res
	}
	price := displayed - t.ring.RD
	if price > t.params.BMax {
		res.Err = fmt.Errorf("ttp: unblinded price %d exceeds bmax %d", price, t.params.BMax)
		return res
	}
	if err := t.verifyFamily(maskers, req.Channel, scaled, req.Family); err != nil {
		res.Err = err
		return res
	}
	if req.SecondPrice || req.RunnerUpSealed != nil {
		// Second-price charging: the winner pays the runner-up's true
		// bid. No runner-up, or one that unblinds to a zero (genuine or
		// disguised), clears the channel for free — the winner faced no
		// real competition.
		price = 0
		if req.RunnerUpSealed != nil {
			ruScaled, err := t.sealer.OpenValue(req.RunnerUpSealed)
			if err != nil {
				res.Err = fmt.Errorf("ttp: open runner-up bid: %w", err)
				return res
			}
			if ruDisplayed := ruScaled / t.ring.CR; ruDisplayed > t.ring.RD {
				price = ruDisplayed - t.ring.RD
				if price > t.params.BMax {
					res.Err = fmt.Errorf("ttp: runner-up price %d exceeds bmax %d", price, t.params.BMax)
					return res
				}
			}
		}
	}
	res.Valid = true
	res.Price = price
	return res
}

// verifyFamily checks that the masked prefix family submitted during the
// auction is exactly the family of the sealed (true) value — i.e. the
// bidder's auction-time ordering claim matches the price it is charged.
// Disguised zeros never reach this check (they fail the rd test first).
func (t *TTP) verifyFamily(maskers []*mask.Masker, channel int, scaled uint64, family []mask.Digest) error {
	if channel < 0 || channel >= t.ring.Channels() {
		return fmt.Errorf("ttp: channel %d out of range", channel)
	}
	masker := maskers[channel]
	if masker == nil {
		var err error
		if masker, err = mask.NewMasker(t.ring.GB[channel]); err != nil {
			return fmt.Errorf("ttp: masker: %w", err)
		}
		maskers[channel] = masker
	}
	w := prefix.WidthFor(t.params.ScaledMax(t.ring))
	var buf [prefix.MaxWidth + 1]prefix.Prefix
	want := prefix.AppendFamily(buf[:0], scaled, w)
	if len(family) != len(want) {
		return fmt.Errorf("ttp: family has %d digests, want %d", len(family), len(want))
	}
	// Equal lengths and every wanted digest present: a repeated digest in
	// family would leave some wanted one out.
	for _, p := range want {
		if !slices.Contains(family, masker.Mask(p.Numericalize())) {
			return fmt.Errorf("ttp: price/prefix mismatch: auction family does not match sealed price")
		}
	}
	return nil
}

// ValidateAward reports whether a sealed bid is a genuine positive bid —
// i.e. not a (possibly disguised) zero. The auctioneer consults this
// during allocation so void awards can be skipped; the TTP reveals a
// single bit and no price. Unopenable ciphertexts count as invalid.
func (t *TTP) ValidateAward(sealed []byte) bool {
	scaled, err := t.sealer.OpenValue(sealed)
	if err != nil {
		return false
	}
	return scaled/t.ring.CR > t.ring.RD
}

// ProcessBatch adjudicates a batch of requests in order (the paper's
// batched TTP interaction), building each channel's masker once per batch.
// A channel with enough requests to pay for a digest table gets one
// (memoizes). It is safe to call concurrently.
func (t *TTP) ProcessBatch(reqs []core.ChargeRequest) []ChargeResult {
	out := make([]ChargeResult, len(reqs))
	maskers := make([]*mask.Masker, t.ring.Channels())
	w := prefix.WidthFor(t.params.ScaledMax(t.ring))
	perChannel := make([]int, len(maskers))
	for _, req := range reqs {
		if req.Channel >= 0 && req.Channel < len(perChannel) {
			perChannel[req.Channel]++
		}
	}
	for r, c := range perChannel {
		if memoizes(c, w) {
			if m, err := mask.NewMasker(t.ring.GB[r]); err == nil {
				m.Memoize(w)
				maskers[r] = m
			}
		}
	}
	for i, req := range reqs {
		out[i] = t.process(req, maskers)
	}
	return out
}

// memoizes reports whether a batch holding requests family checks on one
// channel should give that channel's masker a digest table: when the
// checks hash at least as many prefixes, w+1 each, as the table holds,
// 2^(w+1) (w+1 < 63 keeps the shift in range). The table is
// key-equivalent material (mask.Masker.Memoize); it stays inside the TTP,
// which holds the keys anyway, and dies with the batch.
func memoizes(requests, w int) bool {
	return w+1 < 63 && requests*(w+1) >= 1<<(w+1)
}
