package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSampleQuantile(t *testing.T) {
	s := NewSample(0)
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	if got := s.Quantile(0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := s.Quantile(1); got != 100 {
		t.Fatalf("q1 = %v", got)
	}
	if got := s.Quantile(0.5); math.Abs(got-50.5) > 1e-9 {
		t.Fatalf("median = %v", got)
	}
	if !math.IsNaN(NewSample(0).Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestSampleFractions(t *testing.T) {
	s := NewSample(0)
	for i := 1; i <= 10; i++ {
		s.Add(float64(i))
	}
	if got := s.FractionAbove(7); got != 0.3 {
		t.Fatalf("above 7 = %v", got)
	}
	if got := s.FractionAbove(10); got != 0 {
		t.Fatalf("above 10 = %v", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for i := 0; i < 10; i++ {
		h.Add(float64(i) + 0.5)
	}
	h.Add(-5) // clamps into first bin
	h.Add(99) // clamps into last bin
	if h.Total() != 12 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Counts[0] != 3 || h.Counts[1] != 2 || h.Counts[4] != 3 {
		t.Fatalf("counts = %v", h.Counts)
	}
}

func TestBreakdown(t *testing.T) {
	b := NewBreakdown()
	b.Add("mem", 3)
	b.Add("vd", 1)
	b.Add("mem", 1)
	if b.Total() != 5 {
		t.Fatalf("total = %v", b.Total())
	}
	if b.Get("mem") != 4 {
		t.Fatalf("mem = %v", b.Get("mem"))
	}
	keys := b.Keys()
	if len(keys) != 2 || keys[0] != "mem" || keys[1] != "vd" {
		t.Fatalf("keys = %v", keys)
	}
	c := b.Clone()
	c.Add("dc", 5)
	if b.Get("dc") != 0 {
		t.Fatal("clone aliases parent")
	}
	b.Scale(2)
	if b.Get("mem") != 8 {
		t.Fatalf("scaled mem = %v", b.Get("mem"))
	}
	other := NewBreakdown()
	other.Add("vd", 10)
	b.AddAll(other)
	if b.Get("vd") != 12 {
		t.Fatalf("vd after AddAll = %v", b.Get("vd"))
	}
	if s := b.String(); !strings.Contains(s, "mem=") {
		t.Fatalf("String = %q", s)
	}
}

func TestTable(t *testing.T) {
	tb := NewTable("scheme", "energy")
	tb.AddRow("baseline", 1.0)
	tb.AddRow("gab", 0.79)
	out := tb.String()
	if !strings.Contains(out, "baseline") || !strings.Contains(out, "0.79") {
		t.Fatalf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header, separator, two rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
}

func TestSummarize(t *testing.T) {
	if got := NewSample(0).Summarize(); got != (Summary{}) {
		t.Fatalf("empty sample summarized to %+v, want the zero value", got)
	}
	one := NewSample(1)
	one.Add(3.5)
	if got := one.Summarize(); got != (Summary{N: 1, Mean: 3.5, Min: 3.5, P50: 3.5, P90: 3.5, P99: 3.5, Max: 3.5}) {
		t.Fatalf("single-value summary: %+v", got)
	}
	s := NewSample(100)
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 100 || sum.Min != 1 || sum.Max != 100 {
		t.Fatalf("summary bounds: %+v", sum)
	}
	if sum.Mean < 50.4 || sum.Mean > 50.6 {
		t.Fatalf("mean %g, want 50.5", sum.Mean)
	}
	if !(sum.Min <= sum.P50 && sum.P50 <= sum.P90 && sum.P90 <= sum.P99 && sum.P99 <= sum.Max) {
		t.Fatalf("quantiles out of order: %+v", sum)
	}
	if sum.P50 < 45 || sum.P50 > 55 || sum.P99 < 95 {
		t.Fatalf("quantiles off: %+v", sum)
	}
}
