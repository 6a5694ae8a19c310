package obs

import (
	"testing"
	"time"
)

func TestLatencySummaryQuantiles(t *testing.T) {
	var s LatencySummary
	// 1..100ms in shuffled-ish order; nearest-rank quantiles are exact.
	for _, ms := range []int{50, 1, 100, 25, 75} {
		s.Observe(time.Duration(ms) * time.Millisecond)
	}
	for ms := 2; ms <= 99; ms++ {
		switch ms {
		case 25, 50, 75:
			continue
		}
		s.Observe(time.Duration(ms) * time.Millisecond)
	}
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 1 * time.Millisecond},
		{0.5, 50 * time.Millisecond},
		{0.95, 95 * time.Millisecond},
		{0.99, 99 * time.Millisecond},
		{1, 100 * time.Millisecond},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Quantiles stay monotone.
	prev := time.Duration(-1)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.95, 0.99} {
		v := s.Quantile(q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestLatencySummaryEmptyAndSingle(t *testing.T) {
	var s LatencySummary
	if s.Quantile(0.99) != 0 {
		t.Fatal("empty summary must report 0")
	}
	s.Observe(7 * time.Millisecond)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := s.Quantile(q); got != 7*time.Millisecond {
			t.Errorf("single-sample Quantile(%v) = %v", q, got)
		}
	}
}

func TestLatencySummaryObserveAfterQuantile(t *testing.T) {
	// Interleaving Observe and Quantile must keep quantiles exact.
	var s LatencySummary
	s.Observe(10 * time.Millisecond)
	s.Observe(30 * time.Millisecond)
	if got := s.Quantile(1); got != 30*time.Millisecond {
		t.Fatalf("Quantile(1) = %v", got)
	}
	s.Observe(20 * time.Millisecond)
	if got := s.Quantile(0.5); got != 20*time.Millisecond {
		t.Fatalf("after re-observe Quantile(0.5) = %v", got)
	}
}
