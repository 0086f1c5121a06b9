package mach

import "testing"

// prehashFrame fills per-mab digest slots that persist across frames
// (prehash.resize caps growth with cap() guards), so after the first frame
// of a given geometry the phase must be allocation-free — the invariant the
// engine-wide 0-allocs StepFrame test in internal/core depends on.
func TestPrehashSlotReuseDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CoMach = true // exercise the aux slots too
	wb, err := NewWriteback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := uniqueFrame(64, 32, 7)
	numMabs := fr.NumMabs(cfg.MabSize)

	wb.prehashFrame(fr, numMabs) // size the slots once

	allocs := testing.AllocsPerRun(50, func() {
		wb.prehashFrame(fr, numMabs)
	})
	if allocs != 0 {
		t.Fatalf("steady-state prehashFrame allocated %.2f times per frame, want 0", allocs)
	}
}
