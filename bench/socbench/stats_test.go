package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{9, 1, 5}, 5},
		{[]float64{6.5, 1, 2, 10}, 4.25},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.1, 1.2, 5.5, 2.0, 4.4}, [3]float64{1.6, 3.1, 4.95}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		for i, got := range []float64{q1, q2, q3} {
			if math.Abs(got-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", tc.xs, i, got, tc.want[i])
			}
		}
	}
}

// TestPercentileTenBeyond checks the reporting rule: a percentile is
// quotable only with at least ten samples beyond it.
func TestPercentileTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %g, %v; want 990 with ten beyond", v, ok)
	}
	if _, ok := percentile(xs[:999], 0.99); ok {
		t.Errorf("p99 of 999 samples has only nine beyond, but was reported quotable")
	}
	if v, ok := percentile(xs[:100], 0.9); v != 90 || !ok {
		t.Errorf("p90 of 1..100 = %g, %v; want 90 with ten beyond", v, ok)
	}
	if v, ok := percentile(xs[:3], 1); v != 3 || !ok {
		t.Errorf("max of 1..3 = %g, %v; want 3, always quotable", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Errorf("percentile of no samples reported quotable")
	}
}
