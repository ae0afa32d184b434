package main

import (
	"fmt"
	"math"
	"sort"
)

// Percentile rule: a timing is reported as its median and as a tail
// only when the sample has at least minBeyond values beyond that tail;
// with fewer than minForTail values the median alone is reported.
const (
	minBeyond  = 10
	minForTail = 40
)

// percentile returns the nearest-rank p-quantile of xs (sorting a copy)
// and whether the sample supports reporting it under the percentile
// rule. p is in (0, 1).
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile %.2f of an empty sample", p)
	}
	if p > 0.5 {
		if n < minForTail {
			return 0, fmt.Errorf("p%g needs %d samples, have %d", p*100, minForTail, n)
		}
		if beyond := n - rank(n, p); beyond < minBeyond {
			return 0, fmt.Errorf("p%g has %d samples beyond it, need %d", p*100, beyond, minBeyond)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(n, p)-1], nil
}

// rank is the 1-based nearest rank of quantile p in a sample of n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quartiles returns q1, median, q3 by the exclusive method (Python's
// statistics.quantiles(n=4) default), so the run record reads the same
// way as the steadiness tool. A single value is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	// The same integer arithmetic as CPython's exclusive method,
	// including its extrapolation at the ends of tiny samples.
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), median(s), at(3)
}

// median of xs (any order).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
