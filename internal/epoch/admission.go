package epoch

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lppa/internal/obs"
)

// Bucket is a token bucket over a caller-supplied clock. Tokens refill
// continuously at Rate per second up to Burst; each Take spends one.
// Running on an explicit clock keeps admission a pure function of the
// arrival process — a seeded arrival sequence yields an identical
// admit/reject sequence on every run, which the determinism tests pin.
//
// A Bucket is not safe for concurrent use; Admission adds the locking.
type Bucket struct {
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   float64 // clock of the previous Take, in seconds
}

// NewBucket returns a full bucket refilling at rate tokens/second up to
// burst. rate and burst must be positive.
func NewBucket(rate, burst float64) (*Bucket, error) {
	if rate <= 0 || burst <= 0 {
		return nil, fmt.Errorf("epoch: token bucket rate %v burst %v, need both positive", rate, burst)
	}
	return &Bucket{rate: rate, burst: burst, tokens: burst}, nil
}

// Take spends one token at clock time now (seconds, monotonic). When the
// bucket is empty it reports false plus how long after now a token will
// next be available — the retry-after hint the transport frames carry.
// A clock that goes backwards is clamped, never refunds.
func (b *Bucket) Take(now float64) (ok bool, retryAfter time.Duration) {
	if now > b.last {
		b.tokens += (now - b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	deficit := 1 - b.tokens
	return false, time.Duration(deficit / b.rate * float64(time.Second))
}

// AdmissionConfig sizes the service's two-level token-bucket gate.
type AdmissionConfig struct {
	// Rate and Burst shape the global bucket every submission (and, wired
	// through transport.WithAdmission, every accepted connection) spends
	// from. Rate ≤ 0 disables the global gate.
	Rate, Burst float64
	// PerBidderRate and PerBidderBurst shape the per-bidder buckets, so
	// one hot bidder cannot starve the rest of the global budget.
	// PerBidderRate ≤ 0 disables the per-bidder gate.
	PerBidderRate, PerBidderBurst float64
}

// Admission is the service's ingest gate: a global token bucket for
// aggregate backpressure plus one bucket per bidder for fairness. The
// zero-value config admits everything.
//
// Admission is safe for concurrent use. Deterministic callers (tests,
// replay) drive it through the *At methods with a logical clock; the
// plain methods use wall time.
type Admission struct {
	cfg AdmissionConfig

	mu        sync.Mutex
	global    *Bucket
	perBidder map[int]*Bucket
	start     time.Time

	admitted *obs.Counter
	rejected *obs.Counter

	// Always-on atomic tallies backing Stats, independent of whether a
	// registry was wired — the ops plane's status probe reads them.
	admittedN atomic.Uint64
	rejectedN atomic.Uint64
}

// NewAdmission builds the gate. reg, when non-nil, receives
// lppa_admission_admitted_total / lppa_admission_rejected_total.
func NewAdmission(cfg AdmissionConfig, reg *obs.Registry) (*Admission, error) {
	a := &Admission{cfg: cfg, perBidder: make(map[int]*Bucket), start: time.Now()}
	if cfg.Rate > 0 {
		g, err := NewBucket(cfg.Rate, cfg.Burst)
		if err != nil {
			return nil, err
		}
		a.global = g
	}
	if cfg.PerBidderRate > 0 {
		// Validate eagerly so a bad per-bidder shape fails at construction,
		// not on the first submission.
		if _, err := NewBucket(cfg.PerBidderRate, cfg.PerBidderBurst); err != nil {
			return nil, err
		}
	}
	if reg != nil {
		a.admitted = reg.Counter("lppa_admission_admitted_total")
		a.rejected = reg.Counter("lppa_admission_rejected_total")
	}
	return a, nil
}

// now is the wall clock as seconds since the gate was built.
func (a *Admission) now() float64 { return time.Since(a.start).Seconds() }

// AdmitConn spends one global token for a transport-level connection at
// wall time; it never touches per-bidder state (the bidder id is not
// known before decode — that is the point of gating here). Wire it into
// the accept path with transport.WithAdmission.
func (a *Admission) AdmitConn() (bool, time.Duration) {
	return a.AdmitConnAt(a.now())
}

// AdmitConnAt is AdmitConn on an explicit clock (seconds).
func (a *Admission) AdmitConnAt(now float64) (bool, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.global == nil {
		a.note(true)
		return true, 0
	}
	ok, retry := a.global.Take(now)
	a.note(ok)
	return ok, retry
}

// AdmitBidderAt spends one global and one per-bidder token at now
// (seconds). Both must have budget; a rejection reports the longer of the
// two retry-after hints and refunds nothing (the spent global token is
// the cost of asking, matching what a datastore-side limiter would burn).
func (a *Admission) AdmitBidderAt(id int, now float64) (bool, time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ok := true
	var retry time.Duration
	if a.global != nil {
		gok, gr := a.global.Take(now)
		if !gok {
			ok, retry = false, gr
		}
	}
	if a.cfg.PerBidderRate > 0 {
		b := a.perBidder[id]
		if b == nil {
			b, _ = NewBucket(a.cfg.PerBidderRate, a.cfg.PerBidderBurst)
			a.perBidder[id] = b
		}
		bok, br := b.Take(now)
		if !bok {
			ok = false
			if br > retry {
				retry = br
			}
		}
	}
	a.note(ok)
	return ok, retry
}

func (a *Admission) note(ok bool) {
	if ok {
		a.admittedN.Add(1)
		if a.admitted != nil {
			a.admitted.Inc()
		}
		return
	}
	a.rejectedN.Add(1)
	if a.rejected != nil {
		a.rejected.Inc()
	}
}

// Stats reports the lifetime admitted/rejected tallies.
func (a *Admission) Stats() (admitted, rejected uint64) {
	return a.admittedN.Load(), a.rejectedN.Load()
}

// ErrRateLimited reports a submission the admission gate turned away,
// with the bucket's refill hint. The transport maps it onto the typed
// retry-after frame; in-process callers back off RetryAfter themselves.
type ErrRateLimited struct {
	RetryAfter time.Duration
}

func (e *ErrRateLimited) Error() string {
	return fmt.Sprintf("epoch: rate limited, retry after %v", e.RetryAfter)
}
