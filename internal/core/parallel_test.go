package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"mach/internal/trace"
	"mach/internal/video"
)

// runConcurrently runs every scheme on tr at once, one goroutine each, and
// returns the results in scheme order.
func runConcurrently(t *testing.T, tr *trace.Trace, schemes []Scheme, cfg Config) []*Result {
	t.Helper()
	res := make([]*Result, len(schemes))
	errs := make([]error, len(schemes))
	var wg sync.WaitGroup
	for i, s := range schemes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = Run(tr, s, cfg)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", schemes[i].Name, err)
		}
	}
	return res
}

// sameResult reports how got differs from want, or "" when the two are
// bit-identical: canonical JSON, total-energy float64 bits, the rendered
// report, substrate stats and per-frame samples.
func sameResult(t *testing.T, want, got *Result) string {
	t.Helper()
	a, b := canonicalJSON(t, want), canonicalJSON(t, got)
	switch {
	case !bytes.Equal(a, b):
		return "canonical JSON diverged: " + firstDiffLine(a, b)
	case math.Float64bits(want.TotalEnergy()) != math.Float64bits(got.TotalEnergy()):
		return "total energy bits differ"
	case want.String() != got.String():
		return "rendered reports differ"
	case !reflect.DeepEqual(want.Mach, got.Mach) || !reflect.DeepEqual(want.Mem, got.Mem):
		return "substrate stats diverged"
	case !reflect.DeepEqual(want.FrameTimes, got.FrameTimes):
		return "per-frame time samples diverged"
	}
	return ""
}

// TestParallelMatchesSequential is the acceptance test of the shared digest
// table: sessions that first touch one cold trace at the same time must
// each produce exactly the result of a sequential run, whichever goroutine
// fills a frame's digests, and a later session on the now-warm table must
// too. The sessions cover two of the same variant and MAB beside GAB, as
// Fig 11's fan-out runs them, so `go test -race` sees concurrent fills of
// one table and of two tables on one trace.
func TestParallelMatchesSequential(t *testing.T) {
	schemes := []Scheme{GAB(4), GAB(4), MAB(4), GAB(DefaultBatch)}
	for _, seed := range []int64{1, 5, 9} {
		for _, key := range []string{"V1", "V4", "V8", "V13"} {
			sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: 16, Seed: seed, MabSize: 4, Quant: 8}
			build := func() *trace.Trace {
				tr, err := BuildTrace(key, sc)
				if err != nil {
					t.Fatal(err)
				}
				return tr
			}
			cfg := testConfig()
			seq, cold := build(), build()
			got := runConcurrently(t, cold, schemes, cfg)
			for i, s := range schemes {
				want := mustRun(t, seq, s, cfg)
				if d := sameResult(t, want, got[i]); d != "" {
					t.Errorf("seed %d %s %s #%d, cold concurrent: %s", seed, key, s.Name, i, d)
				}
				if d := sameResult(t, want, mustRun(t, cold, s, cfg)); d != "" {
					t.Errorf("seed %d %s %s #%d, warm: %s", seed, key, s.Name, i, d)
				}
			}
		}
	}
}

// TestParallelAcrossSchemes runs every standard scheme at once on one cold
// trace, over a network with buffer ABR so the GAB sessions fill tables of
// several quant shifts: the raw layout, mab mode and gab mode side by side
// must match their sequential runs.
func TestParallelAcrossSchemes(t *testing.T) {
	sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: 48, Seed: 5, MabSize: 4, Quant: 8}
	seq, err := BuildTrace("V7", sc)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := BuildTrace("V7", sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{testConfig(), abrConfig("buffer", 4e6, 0)} {
		schemes := StandardSchemes()
		got := runConcurrently(t, cold, schemes, cfg)
		for i, s := range schemes {
			if d := sameResult(t, mustRun(t, seq, s, cfg), got[i]); d != "" {
				t.Errorf("%s (ABR %v): %s", s.Name, cfg.ABR.Enabled, d)
			}
		}
	}
}

// firstDiffLine renders the first differing line of two texts, with a line
// number, for readable failure output.
func firstDiffLine(a, b []byte) string {
	al := bytes.Split(a, []byte("\n"))
	bl := bytes.Split(b, []byte("\n"))
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(al[i], bl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	if len(al) != len(bl) {
		return fmt.Sprintf("line counts differ: %d vs %d", len(al), len(bl))
	}
	return "no line-level difference (byte-level only)"
}
