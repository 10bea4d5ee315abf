package main

import (
	"math"
	"sort"
)

// quantile returns the exact q-quantile of an ascending slice by the
// nearest-rank rule: the smallest sample with at least q·n samples at or
// below it. No interpolation and no buckets — the regression bounds are 5–10 %
// and a bucketed histogram as wide as the bound could not resolve them.
func quantile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// tailQuantile returns the q-quantile, lowered to the highest quantile that
// still has at least ten samples beyond it, and the quantile actually used: a
// tail read from fewer than ten samples is one outlier, not a percentile.
func tailQuantile[T int64 | uint32 | float64](sorted []T, q float64) (T, float64) {
	n := len(sorted)
	if n == 0 {
		var zero T
		return zero, 0
	}
	if supported := 1 - 10/float64(n); q > supported {
		q = max(supported, 0)
	}
	return quantile(sorted, q), q
}

func sortedCopy[T int64 | uint32 | float64](s []T) []T {
	out := append([]T(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// median of a small unsorted set, averaging the middle pair of an even one.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(vals, n=4) gives (the default "exclusive" method), so
// -compare judges spread with the same arithmetic the acceptance driver uses.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // taken after the clamp, so small sets extrapolate as Python's do
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// windowSpreadPct is (max − min) ÷ median of the per-window rates, in percent:
// a run whose windows disagree was disturbed from outside.
func windowSpreadPct(rates []float64) float64 {
	if len(rates) == 0 {
		return 0
	}
	lo, hi := rates[0], rates[0]
	for _, r := range rates {
		lo, hi = min(lo, r), max(hi, r)
	}
	return 100 * ratio(hi-lo, median(rates))
}

// ratio is a/b, and 0 when b is 0: every metric is printed as a JSON number.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
