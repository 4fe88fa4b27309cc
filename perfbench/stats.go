package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of
// xs by the "exclusive" method of Python's statistics.quantiles(n=4),
// so the spreads the steadiness mode prints are the ones a reader
// recomputes from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	if len(xs) < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 values, have %d", len(xs))
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], nil
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// refuses when fewer than minBeyond samples lie above it: a tail read
// off a handful of samples is one slow operation, not a percentile.
func percentile(xs []float64, p float64, minBeyond int) (float64, error) {
	if p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0, 1)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", p*100, n, n-rank, minBeyond)
	}
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	return d[rank-1], nil
}

// perSecond is work per second of elapsed time, refusing a zero or
// negative interval instead of reporting an infinite rate.
func perSecond(work, seconds float64) (float64, error) {
	if seconds <= 0 {
		return 0, fmt.Errorf("rate over a non-positive interval (%vs)", seconds)
	}
	return work / seconds, nil
}

// geomean returns the geometric mean of strictly positive ratios.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("geometric mean of no values")
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return 0, fmt.Errorf("geometric mean of non-positive or non-finite value %v", x)
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}
