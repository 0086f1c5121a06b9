package main

import (
	"math"
	"testing"
)

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 50, Parent: 0},  // overlaps a: union 10..50
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past its parent: clipped to 90..100
		{Name: "a.1", Start: 15, End: 20, Parent: 1},
		{Name: "other", Start: 0, End: 100, Parent: -1}, // a sibling root covers nothing of op
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 30 - 5, 20, 30, 5, 100}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestUnionLength(t *testing.T) {
	for _, c := range []struct {
		iv   [][2]int64
		want int64
	}{
		{nil, 0},
		{[][2]int64{{0, 10}}, 10},
		{[][2]int64{{20, 30}, {0, 10}}, 20},
		{[][2]int64{{0, 10}, {5, 15}, {15, 20}}, 20},
		{[][2]int64{{0, 100}, {10, 20}}, 100},
	} {
		if got := unionLength(c.iv); got != c.want {
			t.Errorf("union(%v) = %d, want %d", c.iv, got, c.want)
		}
	}
}

func TestTracerNestsSpansAndTagsOps(t *testing.T) {
	var off *tracer
	if id := off.begin("x"); id != -1 {
		t.Fatalf("nil tracer begin = %d", id)
	}
	off.end(-1)
	off.note("x", 1)

	tr := newTracer()
	tr.setOp(7)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	tr.end(outer)
	tr.setOp(-1)
	after := tr.begin("after")
	tr.end(after)
	if tr.spans[inner].Parent != outer || tr.spans[outer].Parent != -1 || tr.spans[after].Parent != -1 {
		t.Errorf("parents: %+v", tr.spans)
	}
	if tr.spans[inner].Op != 7 || tr.spans[after].Op != -1 {
		t.Errorf("op ids: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestClosureAndTraceOverhead(t *testing.T) {
	if got := closure(900, 1000); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("closure = %v, want 0.9", got)
	}
	if got := closure(1, 0); got != 0 {
		t.Errorf("closure without steps = %v, want 0", got)
	}
	if got := traceOverhead(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overhead = %v, want 0.1", got)
	}
	if got := traceOverhead(100, 0); got != 0 {
		t.Errorf("overhead without traced ops = %v, want 0", got)
	}
	win := []opTiming{
		{ms: 100, frames: 48},
		{ms: 120, frames: 48, traced: true},
		{ms: 100, frames: 48},
		{ms: 120, frames: 48, traced: true},
	}
	if got := overheadOf(win); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("window overhead = %v, want 0.2", got)
	}
}
