package core

import (
	"testing"

	"mach/internal/video"
)

// TestStepFrameZeroAllocs pins the dynamic half of the hot-path invariant
// that machlint's allocheck proves statically: once the frame pools and
// writeback free lists recycle, a steady-state StepFrame allocates nothing.
// The pipeline recycles a frame's layout only retention+4 display periods
// after scan-out, and the display lags the decoder by up to a batch, so the
// warm-up steps twice that NumMACHs+batch+12 horizon before measuring.
//
// The rows share one freshly built trace per profile and use distinct
// digest-table variants, so each measured frame is the first touch of its
// table entries and StepFrame fills them: the CO-MACH rows fill aux hashes
// too, and the ABR row's link is slow enough that a rung switch, and with
// it the first touch of another quant shift's table, lands inside the
// measured frames.
func TestStepFrameZeroAllocs(t *testing.T) {
	const runs = 16
	comach := testConfig()
	comach.Mach.CoMach = true
	rows := []struct {
		name      string
		s         Scheme
		cfg       Config
		wantShift bool // a rung switch must land inside the measured frames
	}{
		{"", GAB(DefaultBatch), testConfig(), false},
		{"", RaceToSleep(DefaultBatch), testConfig(), false},
		{"+CO-MACH", GAB(DefaultBatch), comach, false},
		{"+CO-MACH", MAB(DefaultBatch), comach, false},
		{"+ABR", GAB(DefaultBatch), abrConfig("buffer", 1e6, 0), true},
	}
	warm := 2 * (testConfig().Mach.NumMACHs + DefaultBatch + 12)
	for _, key := range []string{"V1", "V4", "V8"} {
		// AllocsPerRun makes one untimed call before its measured runs.
		sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: warm + runs + 1, Seed: 5, MabSize: 4, Quant: 8}
		tr, err := BuildTrace(key, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range rows {
			r, err := NewRunner(tr, row.s, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warm; i++ {
				r.StepFrame()
			}
			switches := r.rungSwitches
			if allocs := testing.AllocsPerRun(runs, r.StepFrame); allocs != 0 {
				t.Errorf("%s%s/%s: steady-state StepFrame allocated %.2f times per frame, want 0", row.s.Name, row.name, key, allocs)
			}
			if row.wantShift && r.rungSwitches == switches {
				t.Errorf("%s%s/%s: no rung switch inside the measured frames", row.s.Name, row.name, key)
			}
		}
	}
}
