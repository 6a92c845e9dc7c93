package main

import (
	"math"
	"sort"
)

// minBeyond is the reporting rule for tails: a percentile is quoted only
// when at least this many samples lie beyond it, so one outlier cannot
// be the whole tail.
const minBeyond = 10

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first quartile, median and third quartile of xs
// by the method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads computed here and by a Python reader
// of the same values agree. Fewer than two samples give that sample (or
// zeros) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	const n = 4
	m := ld + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		j = min(max(j, 1), ld-1)
		delta := i*m - j*n
		q[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// beyond is how many of n samples lie strictly beyond the nearest-rank
// p-percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// percentile returns the nearest-rank p-percentile of xs (0 < p ≤ 1;
// p = 1 is the maximum) and whether at least minBeyond samples lie
// beyond it. The maximum is a statistic of its own and always reports
// true.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	if len(xs) == 0 {
		return 0, false
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = min(max(i, 0), len(s)-1)
	return s[i], p >= 1 || beyond(len(s), p) >= minBeyond
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
