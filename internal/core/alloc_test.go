package core

import "testing"

// TestStepFrameZeroAllocs pins the dynamic half of the hot-path invariant
// that machlint's allocheck proves statically: once the frame pools and
// writeback free lists recycle, a steady-state StepFrame allocates nothing.
// The pipeline recycles a frame's layout only retention+4 display periods
// after scan-out, and the display lags the decoder by up to a batch, so the
// warm-up steps twice that NumMACHs+batch+12 horizon before measuring.
func TestStepFrameZeroAllocs(t *testing.T) {
	const runs = 16
	cfg := testConfig()
	for _, s := range []Scheme{GAB(DefaultBatch), RaceToSleep(DefaultBatch)} {
		warm := 2 * (cfg.Mach.NumMACHs + s.Batch + 12)
		for _, key := range []string{"V1", "V4", "V8"} {
			// AllocsPerRun makes one untimed call before its measured runs.
			r, err := NewRunner(testTrace(t, key, warm+runs+1), s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warm; i++ {
				r.StepFrame()
			}
			if allocs := testing.AllocsPerRun(runs, r.StepFrame); allocs != 0 {
				t.Errorf("%s/%s: steady-state StepFrame allocated %.2f times per frame, want 0", s.Name, key, allocs)
			}
		}
	}
}
