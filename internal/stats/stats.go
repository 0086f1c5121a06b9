// Package stats provides the small statistical toolkit the experiment
// harness needs: histograms and quantiles over collected samples, and
// weighted breakdowns. Everything is deterministic and allocation-light.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is an in-memory collection of float64 observations supporting exact
// quantiles.
type Sample struct {
	xs     []float64
	sorted bool
}

// NewSample returns an empty sample with the given capacity hint.
func NewSample(capacity int) *Sample {
	return &Sample{xs: make([]float64, 0, capacity)}
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Len returns the number of observations.
func (s *Sample) Len() int { return len(s.xs) }

// Values returns the observations in insertion order. The caller must not
// mutate the returned slice.
func (s *Sample) Values() []float64 { return s.xs }

func (s *Sample) sort() {
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
}

// Quantile returns the q-th quantile (0 <= q <= 1) by linear interpolation.
// It returns NaN for an empty sample.
func (s *Sample) Quantile(q float64) float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	s.sort()
	if q <= 0 {
		return s.xs[0]
	}
	if q >= 1 {
		return s.xs[len(s.xs)-1]
	}
	pos := q * float64(len(s.xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.xs[lo]
	}
	frac := pos - float64(lo)
	return s.xs[lo]*(1-frac) + s.xs[hi]*frac
}

// Mean returns the arithmetic mean, or NaN for an empty sample.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// FractionAbove returns the fraction of observations strictly greater than x.
func (s *Sample) FractionAbove(x float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	s.sort()
	i := sort.SearchFloat64s(s.xs, math.Nextafter(x, math.Inf(1)))
	return float64(len(s.xs)-i) / float64(len(s.xs))
}

// Summary is a JSON-stable quantile digest of a Sample: count, mean, and the
// five quantiles population reports care about. The zero value (all zeros)
// stands in for an empty sample so marshaling never emits NaN, which
// encoding/json rejects.
type Summary struct {
	N    int64
	Mean float64
	Min  float64
	P50  float64
	P90  float64
	P99  float64
	Max  float64
}

// Summarize digests the sample into a Summary. Empty samples yield the zero
// Summary rather than NaN-filled fields.
func (s *Sample) Summarize() Summary {
	if len(s.xs) == 0 {
		return Summary{}
	}
	return Summary{
		N:    int64(len(s.xs)),
		Mean: s.Mean(),
		Min:  s.Quantile(0),
		P50:  s.Quantile(0.5),
		P90:  s.Quantile(0.9),
		P99:  s.Quantile(0.99),
		Max:  s.Quantile(1),
	}
}

// Histogram counts observations in fixed-width bins over [Lo, Hi). Samples
// outside the range are clamped into the first/last bin.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram creates a histogram with bins equal-width bins across [lo, hi).
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins < 1 || hi <= lo {
		panic("stats: invalid histogram shape")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	i := int((x - h.Lo) / (h.Hi - h.Lo) * float64(len(h.Counts)))
	if i < 0 {
		i = 0
	}
	if i >= len(h.Counts) {
		i = len(h.Counts) - 1
	}
	h.Counts[i]++
	h.total++
}

// Total returns the number of recorded observations.
func (h *Histogram) Total() int64 { return h.total }

// Breakdown is a named, ordered set of non-negative components (for example
// an energy split). Keys keep insertion order so reports are stable.
type Breakdown struct {
	keys []string
	vals map[string]float64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{vals: make(map[string]float64)}
}

// Add accumulates v into component key, creating it on first use.
func (b *Breakdown) Add(key string, v float64) {
	if _, ok := b.vals[key]; !ok {
		b.keys = append(b.keys, key)
	}
	b.vals[key] += v
}

// Get returns the value of key (0 when absent).
func (b *Breakdown) Get(key string) float64 { return b.vals[key] }

// Keys returns the component names in insertion order.
func (b *Breakdown) Keys() []string { return b.keys }

// Total returns the sum of all components, accumulated in insertion order
// so the floating-point result is deterministic.
func (b *Breakdown) Total() float64 {
	t := 0.0
	for _, k := range b.keys {
		t += b.vals[k]
	}
	return t
}

// Scale multiplies every component by f, returning b.
func (b *Breakdown) Scale(f float64) *Breakdown {
	for _, k := range b.keys {
		b.vals[k] *= f
	}
	return b
}

// AddAll folds every component of other into b.
func (b *Breakdown) AddAll(other *Breakdown) {
	for _, k := range other.keys {
		b.Add(k, other.vals[k])
	}
}

// Clone returns a deep copy.
func (b *Breakdown) Clone() *Breakdown {
	c := NewBreakdown()
	c.AddAll(b)
	return c
}

func (b *Breakdown) String() string {
	var sb strings.Builder
	t := b.Total()
	for i, k := range b.keys {
		if i > 0 {
			sb.WriteString(" ")
		}
		pct := 0.0
		if t != 0 {
			pct = 100 * b.vals[k] / t
		}
		fmt.Fprintf(&sb, "%s=%.4g(%.1f%%)", k, b.vals[k], pct)
	}
	return sb.String()
}
