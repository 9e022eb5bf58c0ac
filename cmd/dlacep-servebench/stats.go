package main

import (
	"math"
	"sort"
)

// median returns the middle value (mean of the middle two for even n); 0
// for an empty slice. The input is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), so a
// spread computed here is the spread the benchmark contract's driver
// computes. Fewer than two values have no spread: both quartiles are the
// value itself.
func quartiles(vs []float64) (q1, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(vs []float64) float64 {
	m := median(vs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	rank := int(math.Ceil(p/100*float64(len(s)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// percentileLadder holds the tail percentiles the benchmark may report.
var percentileLadder = []float64{50, 90, 99, 99.9}

// supportedPercentile returns the highest percentile of the ladder that
// still has at least ten of n samples beyond it (0 when even the median
// has not): a tail read off fewer samples is one outlier, not a percentile.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		beyond := n - int(math.Ceil(p/100*float64(n)-1e-9))
		if beyond >= 10 {
			best = p
		}
	}
	return best
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}
