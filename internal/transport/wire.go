// Package transport deploys the LPPA parties over real connections: a TTP
// server escrowing keys and adjudicating charges, an auctioneer server
// collecting masked submissions and running the private auction, and a
// bidder client. Messages are length-delimited gob; the same wire types
// work over TCP and over in-memory pipes (tests).
//
// Trust boundaries are explicit: the auctioneer only ever sees wire types
// containing masked digests and sealed ciphertexts; the key ring travels
// only on the bidder↔TTP connection.
package transport

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"time"

	"lppa/internal/core"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/prefix"
	"lppa/internal/ttp"
)

// Protocol version, checked in every frame. Version 2 switched the wire
// format from a single long-lived gob stream to self-contained
// length-prefixed frames, so a receiver can cap and reject a frame before
// allocating for it and a retrying sender can resend a frame verbatim.
const protocolVersion = 2

// Wire hardening caps. A peer-supplied length or count beyond these is
// rejected before any allocation happens, so a hostile 2 GB length prefix
// costs the server nothing.
const (
	// MaxFrameBytes caps one frame's payload. The largest legitimate
	// frame is a submission (≲ a few hundred KB at production parameters);
	// 16 MiB leaves wide headroom without letting a peer balloon memory.
	MaxFrameBytes = 16 << 20
	// MaxDigestsPerSet caps any single digest set in a submission or
	// charge request. Prefix families and range covers are O(log domain)
	// — tens of digests — so 4096 is far beyond any honest submission.
	MaxDigestsPerSet = 4096
	// MaxSealedBytes caps a sealed-bid ciphertext (nonce + GCM tag +
	// value, well under 100 bytes when honest).
	MaxSealedBytes = 1024
	// MaxChargeRequests caps one charge batch.
	MaxChargeRequests = 1 << 16
)

// MsgKind discriminates top-level messages.
type MsgKind int

// Message kinds. Start at 1 so the zero value is invalid (a decoding
// error, not an accidental valid message).
const (
	KindKeyRingRequest MsgKind = iota + 1
	KindKeyRingReply
	KindSubmission
	KindSubmissionAck
	KindResult
	KindChargeBatch
	KindChargeReply
	KindError
	// KindRetryAfter is an admission-control rejection sent before any
	// payload decode work: the server is shedding load and the frame's
	// RetryAfterMsg tells the client when a token should be available.
	// Appended after KindError so every pre-existing kind keeps its wire
	// number.
	KindRetryAfter
)

// Envelope frames every message with a version and kind. Trace is the
// sender's span context; the zero TraceContext (untraced) is omitted
// from the gob encoding entirely, so untraced frames carry no trace
// bytes, and peers that predate the field skip it on decode (gob matches
// struct fields by name and ignores unknown ones). Both directions are
// pinned by compat tests.
type Envelope struct {
	Version int
	Kind    MsgKind
	Trace   TraceContext
}

// TraceContext carries a span identity across the wire so the receiver's
// spans can parent onto the sender's. Zero means "not traced".
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
}

// Valid reports whether the context names a real span.
func (t TraceContext) Valid() bool { return t.TraceID != 0 && t.SpanID != 0 }

// SpanContext converts to the obs span identity.
func (t TraceContext) SpanContext() obs.SpanContext {
	return obs.SpanContext{Trace: obs.TraceID(t.TraceID), Span: obs.SpanID(t.SpanID)}
}

// ToTraceContext converts an obs span identity to its wire form.
func ToTraceContext(c obs.SpanContext) TraceContext {
	return TraceContext{TraceID: uint64(c.Trace), SpanID: uint64(c.Span)}
}

// KeyRingReply carries the secret material from the TTP to a bidder.
// It must never be sent to the auctioneer.
type KeyRingReply struct {
	G0 []byte
	GB [][]byte
	GC []byte
	RD uint64
	CR uint64
}

// RingToWire converts a key ring for transmission.
func RingToWire(r *mask.KeyRing) KeyRingReply {
	gb := make([][]byte, len(r.GB))
	for i, k := range r.GB {
		gb[i] = append([]byte(nil), k...)
	}
	return KeyRingReply{
		G0: append([]byte(nil), r.G0...),
		GB: gb,
		GC: append([]byte(nil), r.GC...),
		RD: r.RD,
		CR: r.CR,
	}
}

// ToRing converts the wire form back to a key ring.
func (k KeyRingReply) ToRing() *mask.KeyRing {
	gb := make([]mask.Key, len(k.GB))
	for i, b := range k.GB {
		gb[i] = mask.Key(b)
	}
	return &mask.KeyRing{G0: mask.Key(k.G0), GB: gb, GC: mask.Key(k.GC), RD: k.RD, CR: k.CR}
}

// DigestSet is the wire form of a mask.Set.
type DigestSet []mask.Digest

// SetToWire flattens a digest set in lexicographic byte order, so the
// serialized transcript is byte-stable across runs (Go randomizes map
// iteration per process; an unordered dump would make Theorem-4 byte
// accounting and golden transcripts flap). Sorting pseudorandom digests
// reveals nothing beyond membership, which the set already exposes.
func SetToWire(s mask.Set) DigestSet { return s.SortedDigests() }

// ToSet rebuilds the mask.Set.
func (d DigestSet) ToSet() mask.Set { return mask.NewSet(d) }

// WireChannelBid is the wire form of core.ChannelBid.
type WireChannelBid struct {
	Family DigestSet
	Range  DigestSet
	Sealed []byte
}

// Submission is a bidder's complete round submission.
type Submission struct {
	BidderID int
	// Nonce identifies this (bidder, round) submission across retries: a
	// client resending after a broken connection reuses the nonce, and the
	// auctioneer treats a matching (BidderID, Nonce) pair as an idempotent
	// replay rather than a duplicate.
	Nonce    uint64
	XFamily  DigestSet
	YFamily  DigestSet
	XRange   DigestSet
	YRange   DigestSet
	Channels []WireChannelBid
}

// Validate rejects malformed submissions before any further processing:
// wrong channel count for the round's parameters, location digest sets
// beyond the hardening cap, channel bids of the wrong shape, or oversized
// sealed ciphertexts.
//
// Every channel bid must have the shape the advanced encoder emits for
// one bid width w: a family of w+1 digests and a range padded to 2w−2.
// The auctioneer does not know w — the TTP keeps cr and rd from it — so
// channel 0's family fixes it. The shape bounds how much a crafted family
// can add to other bidders' rank-memo counts; it cannot stop a family of
// the right length holding chosen prefixes (DESIGN.md §5g).
func (s Submission) Validate(params core.Params) error {
	if len(s.Channels) != params.Channels {
		return fmt.Errorf("transport: submission has %d channel bids, round has %d channels",
			len(s.Channels), params.Channels)
	}
	sets := []struct {
		name string
		n    int
	}{
		{"x family", len(s.XFamily)}, {"y family", len(s.YFamily)},
		{"x range", len(s.XRange)}, {"y range", len(s.YRange)},
	}
	for _, set := range sets {
		if set.n > MaxDigestsPerSet {
			return fmt.Errorf("transport: submission %s has %d digests, cap %d", set.name, set.n, MaxDigestsPerSet)
		}
	}
	for r, cb := range s.Channels {
		if w := len(s.Channels[0].Family) - 1; w < 1 || w > prefix.MaxWidth ||
			len(cb.Family) != w+1 || len(cb.Range) != prefix.MaxCoverSize(w) {
			return fmt.Errorf("transport: channel %d bid has %d+%d digests, not the w+1 and padded 2w−2 of channel 0's bid width w = %d",
				r, len(cb.Family), len(cb.Range), w)
		}
		if len(cb.Sealed) > MaxSealedBytes {
			return fmt.Errorf("transport: channel %d sealed bid is %d bytes, cap %d",
				r, len(cb.Sealed), MaxSealedBytes)
		}
	}
	return nil
}

// NewSubmission assembles the wire submission from protocol objects.
func NewSubmission(id int, loc *core.LocationSubmission, bid *core.BidSubmission) Submission {
	s := Submission{
		BidderID: id,
		XFamily:  SetToWire(loc.XFamily),
		YFamily:  SetToWire(loc.YFamily),
		XRange:   SetToWire(loc.XRange),
		YRange:   SetToWire(loc.YRange),
		Channels: make([]WireChannelBid, len(bid.Channels)),
	}
	for i := range bid.Channels {
		cb := &bid.Channels[i]
		s.Channels[i] = WireChannelBid{
			Family: SetToWire(cb.Family),
			Range:  SetToWire(cb.Range),
			Sealed: append([]byte(nil), cb.Sealed...),
		}
	}
	return s
}

// Parts reconstructs the protocol objects on the auctioneer side.
func (s Submission) Parts() (*core.LocationSubmission, *core.BidSubmission) {
	loc := &core.LocationSubmission{
		XFamily: s.XFamily.ToSet(),
		YFamily: s.YFamily.ToSet(),
		XRange:  s.XRange.ToSet(),
		YRange:  s.YRange.ToSet(),
	}
	bid := &core.BidSubmission{Channels: make([]core.ChannelBid, len(s.Channels))}
	for i, wc := range s.Channels {
		bid.Channels[i] = core.ChannelBid{
			Family: wc.Family.ToSet(),
			Range:  wc.Range.ToSet(),
			Sealed: append([]byte(nil), wc.Sealed...),
		}
	}
	return loc, bid
}

// Result tells a bidder how the round ended for it.
type Result struct {
	BidderID int
	Won      bool
	Channel  int
	Price    uint64
	// Voided reports that the bidder "won" with a zero (its disguise was
	// caught); it possesses no spectrum and pays nothing.
	Voided bool
}

// ChargeBatch is the auctioneer→TTP charging request.
type ChargeBatch struct {
	Requests []core.ChargeRequest
}

// Validate rejects malformed charge batches before processing: too many
// requests, oversized sealed ciphertexts, or digest families beyond the
// hardening cap.
func (b ChargeBatch) Validate() error {
	if len(b.Requests) > MaxChargeRequests {
		return fmt.Errorf("transport: charge batch has %d requests, cap %d", len(b.Requests), MaxChargeRequests)
	}
	for i, r := range b.Requests {
		if len(r.Sealed) > MaxSealedBytes || len(r.RunnerUpSealed) > MaxSealedBytes {
			return fmt.Errorf("transport: charge request %d sealed bid exceeds %d bytes", i, MaxSealedBytes)
		}
		if len(r.Family) > MaxDigestsPerSet {
			return fmt.Errorf("transport: charge request %d has %d family digests, cap %d", i, len(r.Family), MaxDigestsPerSet)
		}
	}
	return nil
}

// WireChargeResult mirrors ttp.ChargeResult with the error flattened to a
// string (gob cannot carry interface values).
type WireChargeResult struct {
	Bidder  int
	Channel int
	Valid   bool
	Price   uint64
	Err     string
}

// ChargeReply is the TTP's adjudication.
type ChargeReply struct {
	Results []WireChargeResult
}

// ChargeResultsToWire flattens TTP results for transmission.
func ChargeResultsToWire(rs []ttp.ChargeResult) []WireChargeResult {
	out := make([]WireChargeResult, len(rs))
	for i, r := range rs {
		out[i] = WireChargeResult{Bidder: r.Bidder, Channel: r.Channel, Valid: r.Valid, Price: r.Price}
		if r.Err != nil {
			out[i].Err = r.Err.Error()
		}
	}
	return out
}

// chargeResultsFromWire restores the TTP's verdicts on the auctioneer
// side; a flattened error comes back as an opaque one.
func chargeResultsFromWire(ws []WireChargeResult) []ttp.ChargeResult {
	out := make([]ttp.ChargeResult, len(ws))
	for i, w := range ws {
		out[i] = ttp.ChargeResult{Bidder: w.Bidder, Channel: w.Channel, Valid: w.Valid, Price: w.Price}
		if w.Err != "" {
			out[i].Err = errors.New(w.Err)
		}
	}
	return out
}

// ErrorMsg reports a protocol failure to the peer. Retryable marks
// transient conditions (the round is mid-allocation and the result will be
// available shortly) that a client should retry after backoff, as opposed
// to permanent rejections (malformed submission, duplicate id).
type ErrorMsg struct {
	Reason    string
	Retryable bool
}

// PeerError is a protocol-level rejection received from the remote party
// (a KindError frame). Receivers use errors.As to distinguish a peer's
// verdict — permanent unless Retryable — from transient transport
// failures, which are always worth retrying.
type PeerError struct {
	Reason    string
	Retryable bool
}

func (e *PeerError) Error() string { return "transport: peer error: " + e.Reason }

// RetryAfterMsg is the KindRetryAfter payload: the admission gate's
// refill hint. Always retryable by construction — the server rejected
// load, not the submission.
type RetryAfterMsg struct {
	RetryAfter time.Duration
}

// RetryAfterError is a KindRetryAfter frame surfaced to the caller. The
// client's retry loop backs off at least RetryAfter before the next
// attempt instead of its own exponential schedule.
type RetryAfterError struct {
	RetryAfter time.Duration
}

func (e *RetryAfterError) Error() string {
	return fmt.Sprintf("transport: rate limited, retry after %v", e.RetryAfter)
}

// deadliner is the optional deadline surface of net.Conn; the Conn
// wrapper arms it when a timeout is configured so a stalled peer cannot
// pin a handler goroutine forever.
type deadliner interface {
	SetReadDeadline(time.Time) error
	SetWriteDeadline(time.Time) error
}

// EncodeFrame serializes one enveloped message to its complete wire form:
// a 4-byte big-endian payload length followed by a self-contained gob
// stream holding the envelope and the body. Self-contained frames cost a
// re-sent type description per message but make every frame independently
// decodable — a retrying client can resend one verbatim and a fuzzer can
// attack the decoder one frame at a time.
func EncodeFrame(kind MsgKind, payload any) ([]byte, error) {
	return EncodeFrameTraced(kind, payload, TraceContext{})
}

// EncodeFrameTraced is EncodeFrame with a span context stamped into the
// envelope. The zero TraceContext produces bytes identical to an
// untraced frame.
func EncodeFrameTraced(kind MsgKind, payload any, tc TraceContext) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, frameHeaderLen))
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(Envelope{Version: protocolVersion, Kind: kind, Trace: tc}); err != nil {
		return nil, fmt.Errorf("transport: encode envelope: %w", err)
	}
	if err := enc.Encode(payload); err != nil {
		return nil, fmt.Errorf("transport: encode payload: %w", err)
	}
	b := buf.Bytes()
	n := len(b) - frameHeaderLen
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("transport: frame payload %d bytes exceeds cap %d", n, MaxFrameBytes)
	}
	binary.BigEndian.PutUint32(b[:frameHeaderLen], uint32(n))
	return b, nil
}

// frameHeaderLen is the length-prefix size.
const frameHeaderLen = 4

// DecodeFrame parses one complete wire frame (as produced by EncodeFrame)
// and returns its envelope plus a decoder positioned at the payload. The
// length prefix is validated against the actual frame size and the
// MaxFrameBytes cap before anything is decoded.
func DecodeFrame(frame []byte) (Envelope, *gob.Decoder, error) {
	if len(frame) < frameHeaderLen {
		return Envelope{}, nil, fmt.Errorf("transport: frame shorter than header (%d bytes)", len(frame))
	}
	n := binary.BigEndian.Uint32(frame[:frameHeaderLen])
	if n > MaxFrameBytes {
		return Envelope{}, nil, fmt.Errorf("transport: frame length %d exceeds cap %d", n, MaxFrameBytes)
	}
	if int(n) != len(frame)-frameHeaderLen {
		return Envelope{}, nil, fmt.Errorf("transport: frame length %d, have %d payload bytes", n, len(frame)-frameHeaderLen)
	}
	return decodeFrameBody(frame[frameHeaderLen:])
}

// decodeFrameBody decodes and validates the envelope of one frame payload.
func decodeFrameBody(body []byte) (Envelope, *gob.Decoder, error) {
	dec := gob.NewDecoder(bytes.NewReader(body))
	var env Envelope
	if err := dec.Decode(&env); err != nil {
		return env, nil, fmt.Errorf("transport: recv envelope: %w", err)
	}
	if env.Version != protocolVersion {
		return env, nil, fmt.Errorf("transport: protocol version %d, want %d", env.Version, protocolVersion)
	}
	if env.Kind < KindKeyRingRequest || env.Kind > KindRetryAfter {
		return env, nil, fmt.Errorf("transport: unknown message kind %d", env.Kind)
	}
	return env, dec, nil
}

// Conn wraps a bidirectional stream with length-prefixed framed gob
// messages. It is not safe for concurrent use.
type Conn struct {
	rw io.ReadWriteCloser
	// idleTimeout bounds the wait for the next frame to start; frameTimeout
	// bounds reading the frame body once its header has arrived. The split
	// lets a server wait patiently between messages while still dropping a
	// slow-loris peer that trickles a frame byte by byte.
	idleTimeout  time.Duration
	frameTimeout time.Duration
	// pending is the current frame's payload decoder, set by RecvEnvelope
	// and consumed by RecvPayload.
	pending *gob.Decoder
	// lastTrace is the trace context of the most recently received
	// envelope, kept so Expect-style helpers that hide the envelope can
	// still surface the sender's span identity (LastTrace).
	lastTrace TraceContext
}

// NewConn wraps a stream with no I/O deadlines.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{rw: rw}
}

// NewConnTimeout wraps a stream with one per-operation I/O deadline used
// both between frames and within them. Streams without deadline support
// (e.g. in-memory pipes in tests) ignore the timeout.
func NewConnTimeout(rw io.ReadWriteCloser, timeout time.Duration) *Conn {
	return &Conn{rw: rw, idleTimeout: timeout, frameTimeout: timeout}
}

// NewConnTimeouts wraps a stream with separate deadlines: idle bounds the
// wait for a frame to start, frame bounds reading its body. Both are
// re-armed per frame, so long rounds are fine as long as the peer keeps
// making frame-level progress.
func NewConnTimeouts(rw io.ReadWriteCloser, idle, frame time.Duration) *Conn {
	return &Conn{rw: rw, idleTimeout: idle, frameTimeout: frame}
}

// SetIdleTimeout changes the between-frames deadline; a client uses this
// to wait longer for the round result than for a submission ack.
func (c *Conn) SetIdleTimeout(d time.Duration) { c.idleTimeout = d }

func (c *Conn) arm(d time.Duration, read bool) {
	dl, ok := c.rw.(deadliner)
	if !ok {
		return
	}
	// d <= 0 means "no deadline": clear any deadline armed for an earlier
	// exchange, otherwise a client that drops its per-exchange timeout for
	// an unbounded result wait would still trip the stale one.
	var t time.Time
	if d > 0 {
		t = time.Now().Add(d)
	}
	if read {
		_ = dl.SetReadDeadline(t)
	} else {
		_ = dl.SetWriteDeadline(t)
	}
}

// Close closes the underlying stream.
func (c *Conn) Close() error { return c.rw.Close() }

// Send writes an enveloped message as exactly one Write call on the
// underlying stream — one frame per Write, which is the contract the
// fault injector (internal/faults) builds on.
func (c *Conn) Send(kind MsgKind, payload any) error {
	return c.SendTraced(kind, payload, TraceContext{})
}

// SendTraced is Send with a span context stamped into the envelope.
func (c *Conn) SendTraced(kind MsgKind, payload any, tc TraceContext) error {
	frame, err := EncodeFrameTraced(kind, payload, tc)
	if err != nil {
		return err
	}
	c.arm(c.frameTimeout, false)
	if _, err := c.rw.Write(frame); err != nil {
		return fmt.Errorf("transport: send frame: %w", err)
	}
	return nil
}

// readFrame reads the next frame off the wire, rejecting oversize or
// malformed length prefixes before allocating the body.
func (c *Conn) readFrame() (Envelope, *gob.Decoder, error) {
	c.arm(c.idleTimeout, true)
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(c.rw, hdr[:]); err != nil {
		return Envelope{}, nil, fmt.Errorf("transport: recv frame header: %w", err)
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > MaxFrameBytes {
		return Envelope{}, nil, fmt.Errorf("transport: frame length %d outside (0, %d]", n, MaxFrameBytes)
	}
	body := make([]byte, n)
	c.arm(c.frameTimeout, true)
	if _, err := io.ReadFull(c.rw, body); err != nil {
		return Envelope{}, nil, fmt.Errorf("transport: recv frame body: %w", err)
	}
	return decodeFrameBody(body)
}

// RecvEnvelope reads the next frame and validates its envelope. The
// payload stays pending until RecvPayload.
func (c *Conn) RecvEnvelope() (Envelope, error) {
	env, dec, err := c.readFrame()
	if err != nil {
		return env, err
	}
	c.pending = dec
	c.lastTrace = env.Trace
	return env, nil
}

// LastTrace returns the trace context of the most recently received
// envelope (zero when the sender was untraced).
func (c *Conn) LastTrace() TraceContext { return c.lastTrace }

// RecvPayload decodes the pending frame's body into payload.
func (c *Conn) RecvPayload(payload any) error {
	if c.pending == nil {
		return fmt.Errorf("transport: no pending frame (RecvEnvelope first)")
	}
	dec := c.pending
	c.pending = nil
	if err := dec.Decode(payload); err != nil {
		return fmt.Errorf("transport: recv payload: %w", err)
	}
	return nil
}

// Expect reads an envelope and asserts its kind, then decodes the body.
// A KindError body is surfaced as a *PeerError, a KindRetryAfter body as
// a *RetryAfterError.
func (c *Conn) Expect(kind MsgKind, payload any) error {
	env, err := c.RecvEnvelope()
	if err != nil {
		return err
	}
	if env.Kind == KindError {
		var em ErrorMsg
		if err := c.RecvPayload(&em); err != nil {
			return err
		}
		return &PeerError{Reason: em.Reason, Retryable: em.Retryable}
	}
	if env.Kind == KindRetryAfter {
		var rm RetryAfterMsg
		if err := c.RecvPayload(&rm); err != nil {
			return err
		}
		return &RetryAfterError{RetryAfter: rm.RetryAfter}
	}
	if env.Kind != kind {
		return fmt.Errorf("transport: got message kind %d, want %d", env.Kind, kind)
	}
	return c.RecvPayload(payload)
}
