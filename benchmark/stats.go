package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted xs by linear interpolation
// between order statistics (q in [0,1]); 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// quartiles returns the cut points Python's statistics.quantiles(xs, n=4)
// gives (the exclusive method), which is what the driver computes spreads
// from. It needs at least two values; with fewer it returns the value
// itself three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := quantile(s, 0.5)
		return v, v, v
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailPercentile applies the reporting rule for a timing's upper
// percentile: the highest whole percentile, at most limit, that still has
// at least 10 samples beyond it; 50 when no percentile above the median
// qualifies. A percentile p of n samples sits at the ceil(p*n/100)-th
// smallest, so the samples beyond it number n - ceil(p*n/100).
func tailPercentile(n, limit int) int {
	for p := limit; p > 50; p-- {
		rank := (p*n + 99) / 100
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

// percentile returns the p-th percentile of sorted xs as the
// ceil(p*n/100)-th smallest sample (nearest rank), so the value reported
// is one that was observed.
func percentile(sorted []float64, p int) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := (p*n + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}
