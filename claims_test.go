// Executable paper claims: each test asserts one claim of EXPERIMENTS.md
// at reduced scale, so a model change that breaks a claim fails the tests
// even where the goldens would be re-blessed with -update.
package mach_test

import (
	"testing"

	"mach"
	"mach/internal/experiments"
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

// TestFig12aMatchesSaturate checks Fig 12a on V2, V7 and V13: searching
// more frozen MACHs finds more matches, but the gain saturates, the paper's
// argument for stopping at 8, while every extra MACH keeps more frame
// buffers alive. Under GAB(8) at 2, 4, 8 and 16 MACHs the match rate must
// rise strictly, rise less from 8 to 16 than from 4 to 8, and the pool's
// high-water mark must rise strictly.
func TestFig12aMatchesSaturate(t *testing.T) {
	counts := []int{2, 4, 8, 16}
	for _, key := range []string{"V2", "V7", "V13"} {
		tr := getTrace(t, key, 48)
		rate := make([]float64, len(counts))
		pool := make([]int, len(counts))
		for i, n := range counts {
			cfg := mach.DefaultConfig()
			cfg.Mach.NumMACHs = n
			res, err := mach.Run(tr, mach.GAB(8), cfg)
			if err != nil {
				t.Fatal(err)
			}
			rate[i], pool[i] = res.Mach.MatchRate(), res.PoolHighWater
		}
		t.Logf("%s: match rate %.3f / %.3f / %.3f / %.3f, pool high water %v at %v MACHs",
			key, rate[0], rate[1], rate[2], rate[3], pool, counts)
		for i := 1; i < len(counts); i++ {
			if rate[i] <= rate[i-1] {
				t.Errorf("%s: match rate %.3f at %d MACHs, not above %.3f at %d", key, rate[i], counts[i], rate[i-1], counts[i-1])
			}
			if pool[i] <= pool[i-1] {
				t.Errorf("%s: pool high water %d at %d MACHs, not above %d at %d", key, pool[i], counts[i], pool[i-1], counts[i-1])
			}
		}
		if gain8, gain16 := rate[2]-rate[1], rate[3]-rate[2]; gain16 >= gain8 {
			t.Errorf("%s: 8 to 16 MACHs gains %.3f, at least 4 to 8's %.3f: no saturation", key, gain16, gain8)
		}
	}
}

// TestFig12cMabSizeDeviation checks Fig 12c on V14 at the frame size
// EXPERIMENTS.md reports, 320x180: 2x2 mabs save nothing, because per-mab
// metadata outweighs what matching saves, and 16x16 saves less than 8x8,
// because whole-block matches grow scarce. The paper finds 4x4 optimal;
// here 8x8 is, because the synthetic content is block-aligned. The test
// asserts that deviation too, so a change that removes it fails here and
// EXPERIMENTS.md is updated with it. At 160x96, 4x4 wins, so the test
// cannot run smaller.
func TestFig12cMabSizeDeviation(t *testing.T) {
	cfg := experiments.Default()
	cfg.Stream.NumFrames = 24
	sizes := []int{2, 4, 8, 16}
	sweep, err := experiments.NewRunner(cfg).MabSizeSweep(sizes)
	if err != nil {
		t.Fatal(err)
	}
	savings := make(map[int]float64, len(sizes))
	for i, n := range sizes {
		savings[n] = sweep[i].Savings()
		t.Logf("%dx%d: gab savings %+.1f%%", n, n, 100*savings[n])
	}
	if savings[2] >= 0 {
		t.Errorf("2x2 saves %+.1f%%, want a loss from metadata overhead", 100*savings[2])
	}
	for _, n := range []int{2, 16} {
		if savings[n] >= savings[8] {
			t.Errorf("%dx%d saves %.1f%%, at least 8x8's %.1f%%", n, n, 100*savings[n], 100*savings[8])
		}
	}
	if savings[4] >= savings[8] {
		t.Errorf("4x4 saves %.1f%%, at least 8x8's %.1f%%: the deviation from the paper's 4x4 optimum is gone; update EXPERIMENTS.md and this test",
			100*savings[4], 100*savings[8])
	}
}
