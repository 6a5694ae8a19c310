// Package ops is the service-level telemetry plane for the epochal
// auction service: liveness/readiness/status HTTP endpoints backed by a
// service probe, an in-process SLO burn-rate monitor over the rolling
// per-phase latency windows, a structured JSONL event log correlated by
// epoch number and trace ID, and a per-epoch privacy-audit time series
// with a configurable anonymity floor. The metric/trace substrate in
// internal/obs records what happened; this package decides whether the
// running service is healthy and says so — over HTTP for probes and
// scrapers, and as events for humans reading the log after the fact.
//
// Like internal/obs, the package follows the nil no-op contract: a nil
// *Plane, *EventLog, or *Monitor is valid and free, so the epochal
// service is instrumented unconditionally and pays nothing when no plane
// is configured.
package ops

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Event types emitted by the plane. The set is closed on purpose: a
// consumer switching on type should be able to enumerate every case.
const (
	EventEpochSealed    = "epoch_sealed"             // an intake batch was sealed for execution
	EventEpochClosed    = "epoch_closed"             // an epoch's round completed (awards final)
	EventAdmissionShed  = "admission_shed"           // the admission gate rejected submissions
	EventStragglerDrop  = "straggler_excluded"       // bidders were excluded by quorum/straggler policy
	EventSLOBreach      = "slo_breach"               // the burn-rate monitor latched a breach
	EventSLORecovered   = "slo_recovered"            // burn rates fell back under thresholds
	EventAnonymityFloor = "anonymity_floor_violated" // an epoch's min anonymity set fell below the floor
	EventFlightDump     = "flight_dump"              // the alarm path forced a flight-recorder dump
	EventDraining       = "service_draining"         // Close began; readiness flipped off
	EventClosed         = "service_closed"           // drain finished; the service is down
)

// Event is one line of the ops event log. Epoch is -1 for events not
// tied to an epoch; Trace is the hex trace ID of the epoch's sampled
// trace ("" when the epoch was not sampled). Attrs carries the
// type-specific payload; encoding/json sorts map keys, so a given event
// marshals deterministically.
type Event struct {
	Seq   uint64         `json:"seq"`
	TS    string         `json:"ts"`
	Type  string         `json:"type"`
	Epoch int            `json:"epoch"`
	Trace string         `json:"trace,omitempty"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// EventLog writes events as JSON lines and retains the most recent few
// for /statusz. Safe for concurrent Emit; the nil *EventLog discards
// everything.
type EventLog struct {
	mu   sync.Mutex
	w    io.Writer // may be nil: ring-only log
	seq  uint64
	ring []Event
	keep int
	now  func() time.Time
}

// DefaultEventKeep is how many recent events /statusz shows.
const DefaultEventKeep = 32

// NewEventLog returns a log appending JSONL to w (nil keeps only the
// in-memory ring for /statusz).
func NewEventLog(w io.Writer) *EventLog {
	return &EventLog{w: w, keep: DefaultEventKeep, now: time.Now}
}

// Emit appends one event. epoch < 0 means "not tied to an epoch"; trace
// 0 omits the trace field. Write errors are swallowed: telemetry must
// never take the auction down. Nil-safe.
func (l *EventLog) Emit(typ string, epoch int, trace uint64, attrs map[string]any) Event {
	if l == nil {
		return Event{}
	}
	l.mu.Lock()
	l.seq++
	ev := Event{
		Seq:   l.seq,
		TS:    l.now().UTC().Format(time.RFC3339Nano),
		Type:  typ,
		Epoch: epoch,
		Attrs: attrs,
	}
	if trace != 0 {
		ev.Trace = hexTrace(trace)
	}
	l.ring = append(l.ring, ev)
	if len(l.ring) > l.keep {
		l.ring = l.ring[len(l.ring)-l.keep:]
	}
	if l.w != nil {
		if b, err := json.Marshal(ev); err == nil {
			b = append(b, '\n')
			_, _ = l.w.Write(b)
		}
	}
	l.mu.Unlock()
	return ev
}

// Recent returns the retained events, oldest first. Nil-safe.
func (l *EventLog) Recent() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]Event(nil), l.ring...)
}

// Count returns how many events have been emitted. Nil-safe.
func (l *EventLog) Count() uint64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seq
}

// hexTrace renders a trace ID the way the Chrome trace exporter does:
// lowercase hex, no leading zeros stripped ambiguity — fixed width 16.
func hexTrace(id uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}
