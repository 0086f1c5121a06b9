// Executable paper claims: each test asserts one claim of EXPERIMENTS.md
// at reduced scale, so a model change that breaks a claim fails the tests
// even where the goldens would be re-blessed with -update.
package mach_test

import (
	"testing"

	"mach"
)

// TestFig5RacingCutsActivates checks the Racing result of §3.2 (Fig 5a):
// decoding at the high DVFS point halves every gap between the decoder's
// line transactions, so more of them ride an open DRAM row before display
// traffic or the row-open timeout closes it. On each workload Racing must
// cut activates by at least the paper's ≈20% against Baseline and raise the
// row-hit rate.
func TestFig5RacingCutsActivates(t *testing.T) {
	for _, key := range []string{"V2", "V7", "V13"} {
		tr := getTrace(t, key, 48)
		cfg := mach.DefaultConfig()
		base, err := mach.Run(tr, mach.Baseline(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		race, err := mach.Run(tr, mach.Racing(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		change := float64(race.Mem.Activates)/float64(base.Mem.Activates) - 1
		t.Logf("%s: activates %d -> %d (%+.1f%%), row-hit rate %.3f -> %.3f",
			key, base.Mem.Activates, race.Mem.Activates, 100*change, base.Mem.RowHitRate(), race.Mem.RowHitRate())
		if change > -0.20 {
			t.Errorf("%s: racing changed activates by %+.1f%%, want at most -20%%", key, 100*change)
		}
		if race.Mem.RowHitRate() <= base.Mem.RowHitRate() {
			t.Errorf("%s: racing row-hit rate %.3f should exceed baseline %.3f", key, race.Mem.RowHitRate(), base.Mem.RowHitRate())
		}
	}
}
