package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 for an empty sample. xs is not modified. Nearest rank, unlike
// stats.Sample.Quantile's interpolation, always reports an observed
// latency, and the samples beyond it are whole samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples. The epsilon keeps p*n/100 landing on a whole number, as 99.9 of
// 10000 does, from rounding up to the next rank.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples that rank above the p-th percentile of n.
func beyond(n int, p float64) int { return n - rankOf(n, p) }

// tailCandidates are the percentiles a report may quote, highest first.
var tailCandidates = []float64{99.9, 99, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so a quoted tail is never one or two
// outliers. ok is false when n is too small for even the median to qualify.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		if beyond(n, c) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns num/den, or 0 when den is not positive.
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}
