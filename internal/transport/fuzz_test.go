package transport

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/mask"
)

// goldenFrames returns one valid encoded frame per message kind,
// exercising every payload type a server might decode.
func goldenFrames(tb testing.TB) [][]byte {
	tb.Helper()
	p := testParams()
	ring, err := mask.DeriveKeyRing([]byte("fuzz"), p.Channels, 3, 4)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	loc, err := core.NewLocationSubmission(p, ring, geo.Point{X: 3, Y: 4})
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := core.NewBidEncoder(p, ring, nil, rng)
	if err != nil {
		tb.Fatal(err)
	}
	bid, err := enc.Encode([]uint64{1, 0, 50, 9}, rng)
	if err != nil {
		tb.Fatal(err)
	}
	sub := NewSubmission(2, loc, bid)
	sub.Nonce = 7

	payloads := []struct {
		kind MsgKind
		body any
	}{
		{KindKeyRingRequest, struct{}{}},
		{KindKeyRingReply, RingToWire(ring)},
		{KindSubmission, sub},
		{KindSubmissionAck, struct{}{}},
		{KindResult, Result{BidderID: 2, Won: true, Channel: 1, Price: 17}},
		{KindChargeBatch, ChargeBatch{Requests: []core.ChargeRequest{
			{Bidder: 0, Channel: 1, Sealed: bid.Channels[1].Sealed, Family: bid.Channels[1].Family.Digests()},
			{Bidder: 2, Channel: 2, Sealed: bid.Channels[2].Sealed, Family: bid.Channels[2].Family.Digests(), SecondPrice: true},
		}}},
		{KindChargeReply, ChargeReply{Results: []WireChargeResult{{Bidder: 0, Channel: 1, Valid: true, Price: 9}}}},
		{KindError, ErrorMsg{Reason: "nope", Retryable: true}},
		{KindRetryAfter, RetryAfterMsg{RetryAfter: 250 * time.Millisecond}},
	}
	frames := make([][]byte, 0, len(payloads))
	for _, pl := range payloads {
		f, err := EncodeFrame(pl.kind, pl.body)
		if err != nil {
			tb.Fatalf("encode kind %d: %v", pl.kind, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// tracedGoldenFrames returns trace-bearing variants of a few golden
// payloads, so the fuzzer also mutates frames whose envelope carries a
// TraceContext (a different gob value shape than the zero-trace frames).
func tracedGoldenFrames(tb testing.TB) [][]byte {
	tb.Helper()
	tc := TraceContext{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718}
	payloads := []struct {
		kind MsgKind
		body any
	}{
		{KindKeyRingRequest, struct{}{}},
		{KindSubmissionAck, struct{}{}},
		{KindError, ErrorMsg{Reason: "traced", Retryable: false}},
	}
	frames := make([][]byte, 0, len(payloads))
	for _, pl := range payloads {
		f, err := EncodeFrameTraced(pl.kind, pl.body, tc)
		if err != nil {
			tb.Fatalf("encode traced kind %d: %v", pl.kind, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// FuzzDecodeFrame hammers the frame decoder — the exact bytes an attacker
// controls — with mutations of every golden frame. The decoder must never
// panic, and every accepted envelope must decode (or cleanly reject) as
// the payload type its kind dictates.
func FuzzDecodeFrame(f *testing.F) {
	for _, frame := range goldenFrames(f) {
		f.Add(frame)
	}
	for _, frame := range tracedGoldenFrames(f) {
		f.Add(frame)
	}
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, dec, err := DecodeFrame(data)
		if err != nil {
			return
		}
		// Accepted envelope: drain the payload as the kind's real type; a
		// decode error is fine, a panic or hang is the bug.
		switch env.Kind {
		case KindKeyRingRequest, KindSubmissionAck:
			var v struct{}
			_ = dec.Decode(&v)
		case KindKeyRingReply:
			var v KeyRingReply
			_ = dec.Decode(&v)
		case KindSubmission:
			var v Submission
			if dec.Decode(&v) == nil {
				_ = v.Validate(testParams())
			}
		case KindResult:
			var v Result
			_ = dec.Decode(&v)
		case KindChargeBatch:
			var v ChargeBatch
			if dec.Decode(&v) == nil {
				_ = v.Validate()
			}
		case KindChargeReply:
			var v ChargeReply
			_ = dec.Decode(&v)
		case KindError:
			var v ErrorMsg
			_ = dec.Decode(&v)
		case KindRetryAfter:
			var v RetryAfterMsg
			_ = dec.Decode(&v)
		default:
			t.Fatalf("DecodeFrame accepted unknown kind %d", env.Kind)
		}
	})
}

// TestGoldenFramesRoundTrip keeps the fuzz corpus honest: every golden
// frame decodes back to its own kind, and the charge batch's lone
// second-price request keeps its SecondPrice mark through gob.
func TestGoldenFramesRoundTrip(t *testing.T) {
	kinds := []MsgKind{KindKeyRingRequest, KindKeyRingReply, KindSubmission, KindSubmissionAck,
		KindResult, KindChargeBatch, KindChargeReply, KindError, KindRetryAfter}
	frames := goldenFrames(t)
	if len(frames) != len(kinds) {
		t.Fatalf("%d golden frames, %d kinds", len(frames), len(kinds))
	}
	for i, frame := range frames {
		env, dec, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Kind != kinds[i] {
			t.Errorf("frame %d decoded kind %d, want %d", i, env.Kind, kinds[i])
		}
		if dec == nil {
			t.Fatalf("frame %d: nil payload decoder", i)
		}
		if env.Kind == KindChargeBatch {
			var b ChargeBatch
			if err := dec.Decode(&b); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if len(b.Requests) != 2 || b.Requests[0].SecondPrice || !b.Requests[1].SecondPrice ||
				b.Requests[1].RunnerUpSealed != nil {
				t.Errorf("frame %d: charge batch decoded as %+v, want a first-price request and a lone second-price one", i, b.Requests)
			}
		}
	}
}

// TestTracedGoldenFramesRoundTrip keeps the traced corpus honest: every
// trace-bearing frame decodes with its trace context intact.
func TestTracedGoldenFramesRoundTrip(t *testing.T) {
	want := TraceContext{TraceID: 0x0102030405060708, SpanID: 0x1112131415161718}
	for i, frame := range tracedGoldenFrames(t) {
		env, dec, err := DecodeFrame(frame)
		if err != nil {
			t.Fatalf("traced frame %d: %v", i, err)
		}
		if env.Trace != want {
			t.Errorf("traced frame %d: trace = %+v, want %+v", i, env.Trace, want)
		}
		if dec == nil {
			t.Fatalf("traced frame %d: nil payload decoder", i)
		}
	}
}

// TestDecodeFrameRejectsLengthMismatch pins the header validation: a
// length prefix that disagrees with the actual payload size is rejected.
func TestDecodeFrameRejectsLengthMismatch(t *testing.T) {
	frame := goldenFrames(t)[0]
	binary.BigEndian.PutUint32(frame[:4], uint32(len(frame))) // lie: off by the header
	if _, _, err := DecodeFrame(frame); err == nil {
		t.Fatal("length-mismatched frame accepted")
	}
	if _, _, err := DecodeFrame([]byte{1, 2}); err == nil {
		t.Fatal("sub-header frame accepted")
	}
}
