package transport

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"lppa/internal/core"
	"lppa/internal/geo"
	"lppa/internal/obs"
)

// TestRecvRejectsHugeLengthPrefix is the regression test for trusting
// peer-supplied lengths: a 2 GB length prefix must be rejected from the
// header alone — before any body allocation or read. The peer sends ONLY
// the 4 header bytes; a decoder that believed the length would block
// forever waiting for the 2 GB body, so a prompt typed error proves the
// cap fired first.
func TestRecvRejectsHugeLengthPrefix(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()

	errCh := make(chan error, 1)
	go func() {
		_, err := NewConn(b).RecvEnvelope()
		errCh <- err
	}()

	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 2<<30) // 2 GiB
	if _, err := a.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("2 GB length prefix accepted")
		}
		if !strings.Contains(err.Error(), "outside") {
			t.Fatalf("err = %v, want length-cap rejection", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver blocked on a 2 GB length prefix (allocated/waited for the body)")
	}
}

// TestRecvRejectsZeroLengthFrame: a zero-length frame is equally
// malformed (no envelope can fit in zero bytes).
func TestRecvRejectsZeroLengthFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	errCh := make(chan error, 1)
	go func() {
		_, err := NewConn(b).RecvEnvelope()
		errCh <- err
	}()
	if _, err := a.Write([]byte{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("zero-length frame accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver hung on zero-length frame")
	}
}

// TestEncodeFrameRejectsOversizePayload: the cap is enforced on the send
// side too, so a misbehaving local caller cannot emit a frame no peer
// would accept.
func TestEncodeFrameRejectsOversizePayload(t *testing.T) {
	if _, err := EncodeFrame(KindError, make([]byte, MaxFrameBytes+1)); err == nil {
		t.Fatal("oversize frame encoded")
	}
}

// TestSubmissionValidateCaps covers the strict malformed-submission
// rejection the auctioneer applies before touching a submission.
func TestSubmissionValidateCaps(t *testing.T) {
	p := testParams()
	ok := Submission{Channels: make([]WireChannelBid, p.Channels)}
	if err := ok.Validate(p); err != nil {
		t.Fatalf("minimal submission rejected: %v", err)
	}
	bad := []struct {
		name string
		mut  func(*Submission)
	}{
		{"channel count", func(s *Submission) { s.Channels = s.Channels[:1] }},
		{"x family digests", func(s *Submission) { s.XFamily = make(DigestSet, MaxDigestsPerSet+1) }},
		{"y range digests", func(s *Submission) { s.YRange = make(DigestSet, MaxDigestsPerSet+1) }},
		{"channel family digests", func(s *Submission) { s.Channels[2].Family = make(DigestSet, MaxDigestsPerSet+1) }},
		{"sealed bytes", func(s *Submission) { s.Channels[0].Sealed = make([]byte, MaxSealedBytes+1) }},
	}
	for _, tc := range bad {
		s := Submission{Channels: make([]WireChannelBid, p.Channels)}
		tc.mut(&s)
		if err := s.Validate(p); err == nil {
			t.Errorf("%s over cap accepted", tc.name)
		}
	}
}

// TestChargeBatchValidateCaps mirrors the same hardening on the TTP side.
func TestChargeBatchValidateCaps(t *testing.T) {
	if err := (ChargeBatch{}).Validate(); err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
	if err := (ChargeBatch{Requests: make([]core.ChargeRequest, MaxChargeRequests+1)}).Validate(); err == nil {
		t.Error("oversized batch accepted")
	}
	if err := (ChargeBatch{Requests: []core.ChargeRequest{
		{Sealed: make([]byte, MaxSealedBytes+1)},
	}}).Validate(); err == nil {
		t.Error("oversized sealed bid accepted")
	}
}

// TestAuctioneerSurvivesMalformedConn: a connection spraying garbage must
// be rejected (counted in the role-labelled rejects metric) without
// poisoning the round — the real bidder that follows completes normally.
func TestAuctioneerSurvivesMalformedConn(t *testing.T) {
	p := testParams()
	log := quietLogger()
	reg := obs.NewRegistry()
	ttpSrv, err := NewTTPServerWithConfig(p, []byte("hard"), 3, 4, listen(t), Config{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()
	aucSrv, err := NewAuctioneerServerWithConfig(p, 1, ttpSrv.Addr().String(), listen(t), 1,
		Config{Logger: log, Telemetry: obs.Telemetry{Metrics: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	// Garbage first: a huge length prefix, then a plausible-length frame of
	// noise.
	for _, garbage := range [][]byte{
		{0x7f, 0xff, 0xff, 0xff},
		{0, 0, 0, 4, 0xde, 0xad, 0xbe, 0xef},
	} {
		raw, err := net.Dial("tcp", aucSrv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := raw.Write(garbage); err != nil {
			t.Fatal(err)
		}
		raw.Close()
	}

	b := &BidderClient{ID: 0, Params: p, Policy: core.DisguisePolicy{P0: 1}}
	res, err := b.Participate(ttpSrv.Addr().String(), aucSrv.Addr().String(),
		geo.Point{X: 3, Y: 3}, []uint64{9, 1, 2, 3}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatalf("honest bidder failed after garbage conns: %v", err)
	}
	if !res.Won {
		t.Error("sole bidder lost its own auction")
	}
	if aucSrv.Wait() == nil {
		t.Fatal("round failed")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		if reg.Snapshot().Counters[`lppa_transport_frames_rejected_total{role="auctioneer"}`] >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejects counter = %d, want >= 2",
				reg.Snapshot().Counters[`lppa_transport_frames_rejected_total{role="auctioneer"}`])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPeerErrorClassification pins the retry taxonomy: Retryable travels
// the wire and errors.As recovers it.
func TestPeerErrorClassification(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	defer ca.Close()
	defer cb.Close()
	go func() { _ = ca.Send(KindError, ErrorMsg{Reason: "round in progress", Retryable: true}) }()
	var ack struct{}
	err := cb.Expect(KindSubmissionAck, &ack)
	var pe *PeerError
	if !errors.As(err, &pe) || !pe.Retryable || pe.Reason != "round in progress" {
		t.Fatalf("err = %v, want retryable peer error", err)
	}
}
