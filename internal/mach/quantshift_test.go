package mach

import (
	"reflect"
	"testing"

	"mach/internal/codec"
	"mach/internal/framebuf"
)

// lowJitterFrame builds a frame of flat 4x4 mabs whose colours differ only
// in the low two bits: identical content once two or more low bits are
// dropped, distinct content before that.
func lowJitterFrame(w, h int) *codec.Frame {
	f := codec.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			jit := byte((y/4*(w/4) + x/4) % 4)
			f.Set(x, y, 40+jit, 80+jit, 120+jit)
		}
	}
	return f
}

func TestQuantShiftCoarsensMatching(t *testing.T) {
	// Raw-content matching (no gab transform): flat mabs of different
	// colours stay distinct, so the low-bit jitter is what decides matches.
	cfg := DefaultConfig()
	cfg.Gradient = false
	fr := lowJitterFrame(32, 16) // 32 mabs in 4 near-identical colour groups

	sharp, _ := NewWriteback(cfg)
	sharp.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	s0 := sharp.Stats()

	coarse, _ := NewWriteback(cfg)
	coarse.SetQuantShift(2)
	if coarse.QuantShift() != 2 {
		t.Fatalf("QuantShift() = %d after SetQuantShift(2)", coarse.QuantShift())
	}
	coarse.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	s2 := coarse.Stats()

	// Dropping the jittered low bits merges the colour groups: strictly more
	// intra matches, strictly less unique content written back.
	if s2.IntraMatches <= s0.IntraMatches {
		t.Fatalf("shift 2 intra matches %d not above shift 0's %d", s2.IntraMatches, s0.IntraMatches)
	}
	if s2.ContentBytes >= s0.ContentBytes {
		t.Fatalf("shift 2 content bytes %d not below shift 0's %d", s2.ContentBytes, s0.ContentBytes)
	}
	// With two low bits gone every mab collapses to one content.
	if s2.IntraMatches != 31 || s2.NoMatches != 1 {
		t.Fatalf("shift 2 should merge all 32 mabs: %+v", s2)
	}

	// Shift 0 is the identity: a fresh engine with an explicit zero shift
	// behaves exactly like one that never touched the knob.
	zero, _ := NewWriteback(cfg)
	zero.SetQuantShift(0)
	zero.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	if !reflect.DeepEqual(zero.Stats(), s0) {
		t.Fatalf("explicit shift 0 diverges from the default:\n%+v\n%+v", zero.Stats(), s0)
	}
}

func TestQuantShiftBounds(t *testing.T) {
	wb, _ := NewWriteback(DefaultConfig())
	for _, bad := range []int{-1, 8, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetQuantShift(%d): no panic", bad)
				}
			}()
			wb.SetQuantShift(bad)
		}()
	}
	for _, ok := range []int{0, 1, 7} {
		wb.SetQuantShift(ok)
		if wb.QuantShift() != ok {
			t.Errorf("QuantShift() = %d, want %d", wb.QuantShift(), ok)
		}
	}
}
