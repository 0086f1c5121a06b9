package experiments

import (
	"testing"
)

// TestSweepParallelDeterministic locks in the fan-out contract: a sweep run
// over a wide pool renders the exact same table as the 1-worker sweep.
// This is the experiments-layer face of the bit-identity guarantee; each
// width runs on a cold trace cache, so its cells also fill the digest
// tables concurrently.
func TestSweepParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-video pipeline sweeps")
	}
	render := func(workers int) (string, string) {
		cfg := tinyConfig()
		cfg.Workers = workers
		r := NewRunner(cfg)
		r.Cache = NewTraceCache()
		fig11, err := r.Fig11()
		if err != nil {
			t.Fatal(err)
		}
		fig2, err := r.Fig2()
		if err != nil {
			t.Fatal(err)
		}
		return fig11.String(), fig2.String()
	}
	ref11, ref2 := render(1)
	for _, workers := range []int{4, 3} {
		got11, got2 := render(workers)
		if got11 != ref11 {
			t.Errorf("workers=%d: Fig11 table diverged\n--- want\n%s\n--- got\n%s", workers, ref11, got11)
		}
		if got2 != ref2 {
			t.Errorf("workers=%d: Fig2 table diverged\n--- want\n%s\n--- got\n%s", workers, ref2, got2)
		}
	}
}

// TestRunIsolatedBounded verifies the sweep fan-out survives a panicking
// cell and keeps index order (the experiment tables rely on it).
func TestRunIsolatedBounded(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 3
	r := NewRunner(cfg)
	errs := r.runIsolated(6, func(i int) error {
		if i == 4 {
			panic("cell 4")
		}
		return nil
	})
	for i, err := range errs {
		if i == 4 {
			if err == nil {
				t.Fatal("panicking cell produced no error")
			}
		} else if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
	}
}
