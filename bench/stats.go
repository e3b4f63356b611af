package main

import (
	"math"
	"sort"
)

// sortedCopy returns the values in ascending order without touching the
// caller's slice.
func sortedCopy(values []float64) []float64 {
	out := append([]float64(nil), values...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest value with at least p percent of the samples at or below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func median(values []float64) float64 {
	s := sortedCopy(values)
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

// tailPercentile names the highest of the usual percentiles that still
// has at least ten samples beyond it, so a reported tail is never one
// or two outliers.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9, 99.99} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// default exclusive method), which is what the acceptance check uses.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise a bound has to stay above.
func spread(values []float64) float64 {
	q1, _, q3 := quartiles(values)
	med := median(values)
	if med == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / med)
}

// slope is the least-squares slope of y against x; with both in logs it
// is the growth exponent of a cost curve.
func slope(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
