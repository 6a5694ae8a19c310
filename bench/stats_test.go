package main

import (
	"math"
	"slices"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool // at least ten samples beyond
	}{
		{100, 50, 50, true},
		{100, 90, 90, true},  // ten samples beyond p90 of 100
		{100, 91, 91, false}, // nine beyond
		{100, 99, 99, false},
		{1000, 99, 990, true},
		{10, 50, 5, false},
		{20, 50, 10, true},
		{47, 75, 36, true}, // a 20 s urban run: p75 keeps eleven beyond
		{39, 75, 30, false},
		{1, 50, 1, false},
		{5, 100, 5, false},
		{5, 0, 1, false},
	}
	for _, c := range cases {
		xs := seq(c.n)
		before := slices.Clone(xs)
		got, ok := percentile(xs, c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, p%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
		if !slices.Equal(xs, before) {
			t.Errorf("percentile(n=%d) reordered its input", c.n)
		}
	}
	if v, ok := percentile(nil, 50); !math.IsNaN(v) || ok {
		t.Errorf("percentile(nil) = %v, %v; want NaN, false", v, ok)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), the rule an outside checker applies.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{10, 12, 11, 50, 13, 9, 10, 11, 12, 14}, 10, 11.5, 13.25},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(med-c.med) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v; want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}
