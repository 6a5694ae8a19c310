package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// FlightRecorder keeps the last K round traces in a ring buffer and
// auto-dumps the whole buffer to disk — as a Chrome trace_event file —
// whenever a newly recorded round failed, was degraded (lost bidders to
// quorum/straggler exclusion), or blew the latency SLO. The idea is the
// aviation one: the recorder is always on and cheap, and the interesting
// file exists by the time anyone asks what went wrong.
//
// The nil *FlightRecorder is a valid no-op, like every other disabled
// handle in this package.

// RoundTrace is one round's worth of spans plus the verdict fields the
// recorder triggers on.
type RoundTrace struct {
	Label    string // short tag used in the dump filename
	Err      string // non-empty when the round failed
	Degraded bool   // true when bidders were excluded
	Epoch    int    // epoch number, meaningful only when HasEpoch
	HasEpoch bool   // set when the round ran inside an epochal service
	Duration time.Duration
	Spans    []*Span
}

// FlightRecorder retains the last K RoundTraces. Safe for concurrent
// Record calls.
type FlightRecorder struct {
	mu   sync.Mutex
	dir  string
	keep int
	slo  time.Duration
	ring []*RoundTrace
	seq  int
}

// DefaultFlightKeep is how many round traces a recorder retains when the
// caller passes keep <= 0.
const DefaultFlightKeep = 8

// NewFlightRecorder returns a recorder dumping into dir. keep <= 0 means
// DefaultFlightKeep; slo <= 0 disables the latency trigger.
func NewFlightRecorder(dir string, keep int, slo time.Duration) *FlightRecorder {
	if keep <= 0 {
		keep = DefaultFlightKeep
	}
	return &FlightRecorder{dir: dir, keep: keep, slo: slo}
}

// Record buffers one round trace and, when the trace trips a trigger
// (failure, degradation, SLO), dumps every buffered trace to a new file
// in the recorder's directory. It returns the dump path ("" when no dump
// fired). Nil-safe.
func (f *FlightRecorder) Record(rt *RoundTrace) (string, error) {
	if f == nil || rt == nil {
		return "", nil
	}
	f.mu.Lock()
	f.ring = append(f.ring, rt)
	if len(f.ring) > f.keep {
		f.ring = f.ring[len(f.ring)-f.keep:]
	}
	if !f.triggered(rt) {
		f.mu.Unlock()
		return "", nil
	}
	epoch := -1
	if rt.HasEpoch {
		epoch = rt.Epoch
	}
	return f.dumpLocked(rt.Label, epoch)
}

// Dump force-dumps the current ring regardless of triggers — the alarm
// path for conditions the recorder can't see itself, like an SLO
// burn-rate breach or an anonymity-floor violation detected by the ops
// plane. epoch < 0 omits the epoch tag from the filename. It returns the
// dump path; nil-safe ("" on the nil recorder).
//
// An empty ring — no round recorded yet — has nothing to dump: Dump then
// writes no file and returns "", and the caller may retry once a round
// has been recorded.
func (f *FlightRecorder) Dump(label string, epoch int) (string, error) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	if len(f.ring) == 0 {
		f.mu.Unlock()
		return "", nil
	}
	return f.dumpLocked(label, epoch)
}

// dumpLocked writes the ring to a fresh dump file. It must be entered
// with f.mu held and releases it before touching the filesystem.
func (f *FlightRecorder) dumpLocked(label string, epoch int) (string, error) {
	f.seq++
	seq := f.seq
	var spans []*Span
	for _, r := range f.ring {
		spans = append(spans, r.Spans...)
	}
	f.mu.Unlock()

	sortSpans(spans)
	// Multi-epoch soak dumps interleave ambiguously without the epoch in
	// the name; flight-e<epoch>-NNN-<label> keeps them attributable.
	name := fmt.Sprintf("flight-%03d-%s.trace.json", seq, sanitizeLabel(label))
	if epoch >= 0 {
		name = fmt.Sprintf("flight-e%d-%03d-%s.trace.json", epoch, seq, sanitizeLabel(label))
	}
	path := filepath.Join(f.dir, name)
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return "", err
	}
	file, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := WriteChromeTrace(file, spans); err != nil {
		file.Close()
		return "", err
	}
	if err := file.Close(); err != nil {
		return "", err
	}
	return path, nil
}

func (f *FlightRecorder) triggered(rt *RoundTrace) bool {
	if rt.Err != "" || rt.Degraded {
		return true
	}
	return f.slo > 0 && rt.Duration > f.slo
}

// Buffered returns how many round traces the ring currently holds.
func (f *FlightRecorder) Buffered() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring)
}

// sanitizeLabel keeps dump filenames shell-safe.
func sanitizeLabel(s string) string {
	if s == "" {
		return "round"
	}
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s) && i < 48; i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
