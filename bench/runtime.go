package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// counters are the process-wide runtime totals a timed phase is measured
// against.
type counters struct {
	cpu      time.Duration // user + system
	alloc    uint64        // bytes allocated
	gcCycles uint32
	pause    time.Duration // stop-the-world GC pauses
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return counters{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:    ms.TotalAlloc,
		gcCycles: ms.NumGC,
		pause:    time.Duration(ms.PauseTotalNs),
	}
}

// phase measures one untraced timed phase: runtime totals around it and
// the peak of the live heap as sampled between ops.
type phase struct {
	start counters
	live  []metrics.Sample
	peak  uint64
}

func startPhase() *phase {
	p := &phase{live: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	p.start = readCounters()
	p.sample()
	return p
}

// sample folds the live heap after the most recent GC into the peak.
func (p *phase) sample() {
	metrics.Read(p.live)
	if v := p.live[0].Value; v.Kind() == metrics.KindUint64 && v.Uint64() > p.peak {
		p.peak = v.Uint64()
	}
}

// phaseStats are one timed phase's runtime costs, per op.
type phaseStats struct {
	ops                 int
	cpuMs, allocMB      float64
	gcCycles, gcPauseMs float64
	heapPeakMB          float64
}

func (p *phase) stop(ops int) phaseStats {
	p.sample()
	end := readCounters()
	s := phaseStats{ops: ops, heapPeakMB: float64(p.peak) / (1 << 20)}
	if ops == 0 {
		return s
	}
	n := float64(ops)
	s.cpuMs = ms(end.cpu-p.start.cpu) / n
	s.allocMB = float64(end.alloc-p.start.alloc) / (1 << 20) / n
	s.gcCycles = float64(end.gcCycles-p.start.gcCycles) / n
	s.gcPauseMs = ms(end.pause-p.start.pause) / n
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
