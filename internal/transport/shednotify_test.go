package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

// TestShedNotifyHook pins the WithShedNotify contract the ops plane
// rides: the hook fires exactly once per shed connection, carrying the
// gate's retry-after hint, and never fires for admitted traffic.
func TestShedNotifyHook(t *testing.T) {
	p := testParams()
	log := quietLogger()
	ttpSrv, err := NewTTPServerWithConfig(p, []byte("shed-notify"), 3, 4, listen(t), Config{Logger: log})
	if err != nil {
		t.Fatal(err)
	}
	defer ttpSrv.Close()

	const hint = 77 * time.Millisecond
	var mu sync.Mutex
	var hints []time.Duration
	cfg, err := New(
		WithLogger(log),
		WithAdmission(func() (bool, time.Duration) { return false, hint }),
		WithShedNotify(func(retry time.Duration) {
			mu.Lock()
			hints = append(hints, retry)
			mu.Unlock()
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	aucSrv, err := NewAuctioneerServerWithConfig(p, 1, ttpSrv.Addr().String(), listen(t), 5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer aucSrv.Close()

	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", aucSrv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := NewConnTimeout(conn, 5*time.Second)
		var ack struct{}
		err = c.Expect(KindSubmissionAck, &ack)
		c.Close()
		var ra *RetryAfterError
		if !errors.As(err, &ra) {
			t.Fatalf("conn %d: error = %v, want *RetryAfterError", i, err)
		}
	}

	mu.Lock()
	defer mu.Unlock()
	if len(hints) != 3 {
		t.Fatalf("hook fired %d times for 3 shed connections", len(hints))
	}
	for i, h := range hints {
		if h != hint {
			t.Fatalf("hook call %d carried hint %v, want %v", i, h, hint)
		}
	}
}

// TestShedNotifyRequiresHook: the option rejects a nil hook at
// configuration time rather than panicking on the accept path.
func TestShedNotifyRequiresHook(t *testing.T) {
	if _, err := New(WithShedNotify(nil)); err == nil {
		t.Fatal("WithShedNotify(nil) accepted")
	}
}
