package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"
)

// This file renders a span slice two ways: the Chrome trace_event format
// (drop the file on chrome://tracing or ui.perfetto.dev) and an indented
// human-readable tree. Both are deterministic for a given span slice —
// the golden test pins the Chrome output byte-for-byte.

func hexID(v uint64) string { return fmt.Sprintf("%016x", v) }

func attrMap(attrs []Label) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, l := range attrs {
		m[l.Key] = l.Value
	}
	return m
}

// earliestStart returns the minimum start time across spans (zero time
// for an empty slice).
func earliestStart(spans []*Span) time.Time {
	var t0 time.Time
	for i, s := range spans {
		if i == 0 || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	return t0
}

// chromeEvent is one entry of the Chrome trace_event JSON array.
// Timestamps are microseconds. encoding/json sorts the Args map, so the
// output is deterministic.
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat,omitempty"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`
	Dur   float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	TimeUnit    string        `json:"displayTimeUnit"`
}

// procPIDs maps each distinct process name to a stable pid (sorted
// order, starting at 1).
func procPIDs(spans []*Span) map[string]int {
	procs := map[string]int{}
	for _, s := range spans {
		procs[s.Proc] = 0
	}
	names := make([]string, 0, len(procs))
	for p := range procs {
		names = append(names, p)
	}
	sort.Strings(names)
	for i, p := range names {
		procs[p] = i + 1
	}
	return procs
}

// WriteChromeTrace writes the spans as a Chrome trace_event JSON object.
// Each process name becomes a pid (with a process_name metadata record),
// each span a complete ("X") event, and each span event an instant ("i")
// event; span/parent/trace ids ride in args so cross-process parent
// links survive the format's lack of a parent field.
func WriteChromeTrace(w io.Writer, spans []*Span) error {
	t0 := earliestStart(spans)
	pids := procPIDs(spans)
	ct := chromeTrace{TimeUnit: "ms", TraceEvents: []chromeEvent{}}

	names := make([]string, 0, len(pids))
	for p := range pids {
		names = append(names, p)
	}
	sort.Strings(names)
	for _, p := range names {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name:  "process_name",
			Phase: "M",
			PID:   pids[p],
			TID:   pids[p],
			Args:  map[string]string{"name": p},
		})
	}

	for _, s := range spans {
		pid := pids[s.Proc]
		args := map[string]string{
			"trace": hexID(uint64(s.Ctx.Trace)),
			"span":  hexID(uint64(s.Ctx.Span)),
		}
		if s.Parent.Valid() {
			args["parent"] = hexID(uint64(s.Parent.Span))
		}
		for _, l := range s.Attrs {
			args[l.Key] = l.Value
		}
		if s.Err != "" {
			args["err"] = s.Err
		}
		ts := float64(s.Start.Sub(t0).Nanoseconds()) / 1e3
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name:  s.Name,
			Cat:   "round",
			Phase: "X",
			TS:    ts,
			Dur:   float64(s.Duration.Nanoseconds()) / 1e3,
			PID:   pid,
			TID:   pid,
			Args:  args,
		})
		for _, e := range s.Events {
			ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
				Name:  e.Name,
				Cat:   "event",
				Phase: "i",
				TS:    ts + float64(e.At.Nanoseconds())/1e3,
				PID:   pid,
				TID:   pid,
				Scope: "t",
				Args:  attrMap(e.Attrs),
			})
		}
	}

	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

// WriteTraceSummary writes a human-readable tree of the spans: roots
// first, children indented under their parent, events inline. Spans
// whose parent is not in the slice (e.g. a remote parent that never
// arrived) are printed as roots.
func WriteTraceSummary(w io.Writer, spans []*Span) error {
	byParent := map[SpanID][]*Span{}
	present := map[SpanID]bool{}
	for _, s := range spans {
		present[s.Ctx.Span] = true
	}
	var roots []*Span
	for _, s := range spans {
		if s.Parent.Valid() && present[s.Parent.Span] {
			byParent[s.Parent.Span] = append(byParent[s.Parent.Span], s)
		} else {
			roots = append(roots, s)
		}
	}
	var walk func(s *Span, depth int) error
	walk = func(s *Span, depth int) error {
		indent := ""
		for i := 0; i < depth; i++ {
			indent += "  "
		}
		status := ""
		if s.Err != "" {
			status = "  ERR=" + s.Err
		}
		if _, err := fmt.Fprintf(w, "%s%s [%s] %s%s\n", indent, s.Name, s.Proc, fmtDur(s.Duration), status); err != nil {
			return err
		}
		for _, e := range s.Events {
			line := indent + "  · " + e.Name + " @" + fmtDur(e.At)
			for _, l := range e.Attrs {
				line += " " + l.Key + "=" + l.Value
			}
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		for _, c := range byParent[s.Ctx.Span] {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}

func fmtDur(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e6, 'f', 3, 64) + "ms"
}
