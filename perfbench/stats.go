package main

import (
	"math"
	"sort"
)

// median is statistics.median: the middle value, or the mean of the two
// middle values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie above the reported tail.
const tailBeyond = 10

// tail returns the highest percentile that has at least tailBeyond
// samples beyond it — the (n-tailBeyond)-th smallest sample — and that
// percentile. It needs n > tailBeyond; it never reports the maximum.
func tail(xs []float64) (value, pct float64) {
	s := sorted(xs)
	n := len(s)
	if n <= tailBeyond {
		return math.NaN(), 0
	}
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio is a/b, or 0 when there were no attempts.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
