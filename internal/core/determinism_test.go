package core

import (
	"math"
	"reflect"
	"testing"

	"mach/internal/trace"
	"mach/internal/video"
)

// These tests lock in at runtime what the machlint determinism analyzer
// enforces statically (see internal/lint): the same seeded workload must
// produce deep-equal traces and bit-identical measurements on every run. If
// either test fails, every table and figure the repo reproduces stops being
// comparable across machines and PRs.

// TestTraceBuildDeterministic synthesizes the same seeded workload twice
// and requires the two traces to be deep-equal: pixels, work records and
// frame metadata.
func TestTraceBuildDeterministic(t *testing.T) {
	sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: 24, Seed: 11, MabSize: 4, Quant: 8}
	key := WorkloadKeys()[0]

	var trs [2]*trace.Trace
	for i := range trs {
		tr, err := BuildTrace(key, sc)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	if !reflect.DeepEqual(trs[0], trs[1]) {
		t.Fatal("same seed produced different traces")
	}
}

// TestRunDeterministic replays one trace through the most machinery-heavy
// scheme (MACH gradient mode plus display optimization) twice and requires
// the two Results to match exactly: same rendered report, same energy down
// to the last float64 bit, and deep-equal measurement structures.
func TestRunDeterministic(t *testing.T) {
	tr := testTrace(t, WorkloadKeys()[0], 24)
	cfg := testConfig()

	for _, s := range []Scheme{Baseline(), RaceToSleep(4), GAB(4)} {
		a := mustRun(t, tr, s, cfg)
		b := mustRun(t, tr, s, cfg)

		if ab, bb := math.Float64bits(a.TotalEnergy()), math.Float64bits(b.TotalEnergy()); ab != bb {
			t.Errorf("%s: total energy differs between identical runs: %x vs %x", s.Name, ab, bb)
		}
		if as, bs := a.String(), b.String(); as != bs {
			t.Errorf("%s: rendered reports differ:\n--- run 1\n%s\n--- run 2\n%s", s.Name, as, bs)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: Result structures differ between identical runs", s.Name)
		}
	}
}
