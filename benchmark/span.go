package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int    `json:"op"`     // op id, -1 outside any op
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory for one traced run. A nil *tracer is the
// untraced mode: every method returns at once, so traced and untraced ops
// share one code path.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
	op    int
	// notes holds per-layer values read from the program rather than
	// timed, such as checkpoint sizes and prehash wall time.
	notes map[string][]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), op: -1, notes: map[string][]float64{}}
}

// setOp tags the spans that follow with op id.
func (t *tracer) setOp(op int) {
	if t != nil {
		t.op = op
	}
}

// begin opens a span nested in the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: t.op})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// note records a value under name.
func (t *tracer) note(name string, v float64) {
	if t != nil {
		t.notes[name] = append(t.notes[name], v)
	}
}

// write stores the spans as JSON, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that the union of its children covers.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(children[i]))
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.dur() - unionLength(iv)
	}
	return self
}

// unionLength is the total length covered by a set of intervals.
func unionLength(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curLo, curHi, open = x[0], x[1], true
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// closure is the share of the engine's per-frame time that the leaf
// layers' self times account for: 1 means the split explains StepFrame.
func closure(leafSelfPerFrame, stepPerFrame float64) float64 {
	return ratio(leafSelfPerFrame, stepPerFrame)
}

// traceOverhead is how much slower the traced ops ran: the untraced rate
// over the traced one, minus 1.
func traceOverhead(untracedRate, tracedRate float64) float64 {
	if tracedRate <= 0 {
		return 0
	}
	return untracedRate/tracedRate - 1
}
