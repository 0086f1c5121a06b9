package mach

import (
	"fmt"
	"testing"

	"mach/internal/framebuf"
	"mach/internal/hashes"
)

// resolveDump is the linear walk freeze-time resolution replaced, kept as
// its oracle: the pointer of the first entry of the layout's own dump, in
// dump order, that carries digest, or the buffer base when none does.
func resolveDump(l *framebuf.FrameLayout, digest uint32) uint64 {
	for _, e := range l.Dump {
		if e.Digest == digest {
			return e.Ptr
		}
	}
	return l.BufferBase
}

// resolveCases are the reference configurations plus the ones the naive
// model cannot check: LFU and FIFO replacement and every digest function.
func resolveCases() []refCase {
	cases := referenceCases()
	cases = append(cases,
		refCase{"gab-lfu", withConfig(func(c *Config) { c.Policy = LFU }), []int{0}},
		refCase{"gab-fifo", withConfig(func(c *Config) { c.Policy = FIFO }), []int{0}},
		refCase{"mab-lfu-comach", withConfig(func(c *Config) { c.Gradient = false; c.Policy = LFU; c.CoMach = true }), []int{0}},
	)
	for _, f := range hashes.AllFuncs() {
		if f == hashes.CRC32 || f == hashes.MD5 {
			continue // gab and gab-md5 among the reference cases
		}
		cases = append(cases, refCase{"gab-" + f.String(), withConfig(func(c *Config) { c.Digest = f }), []int{0}})
	}
	return cases
}

// TestDigestRecordsResolveLikeDumpWalk checks freeze-time resolution: every
// digest record's Ptr must be what a walk of its own layout's dump finds,
// with the buffer base as the fallback, on every input and configuration.
func TestDigestRecordsResolveLikeDumpWalk(t *testing.T) {
	var resolved, fellBack int
	for _, in := range refInputs(t) {
		for _, c := range resolveCases() {
			wb, err := NewWriteback(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range c.shifts {
				wb.ShareDigests(in.tr, s)
			}
			for i, f := range in.tr.Frames {
				wb.SetQuantShift(c.shifts[i%len(c.shifts)])
				l := wb.ProcessFrame(f.Decoded, f.DisplayIndex, frameBase(i), framebuf.RegionMachDumps, nil)
				for j, rec := range l.Records {
					if rec.Kind != framebuf.RecDigest {
						continue
					}
					want := resolveDump(l, rec.Digest)
					if rec.Ptr != want {
						t.Fatalf("%s/%s: frame %d mab %d: digest %#x resolved to %#x, the dump walk says %#x",
							in.name, c.name, i, j, rec.Digest, rec.Ptr, want)
					}
					if want == l.BufferBase {
						fellBack++
					} else {
						resolved++
					}
				}
			}
		}
	}
	if resolved == 0 || fellBack == 0 {
		t.Errorf("%d digest records resolved in the dump and %d fell back: the test needs both", resolved, fellBack)
	}
}

// heldGap returns a digest some frozen MACH of w holds whose summary bit is
// clear, the false negative that would make match skip a real hit.
func heldGap(w *Writeback) (uint32, bool) {
	for _, h := range w.history {
		for _, e := range h.entries {
			if e.valid && !w.held.mayHold(e.digest) {
				return e.digest, true
			}
		}
	}
	return 0, false
}

// TestHeldCoversHistory is the no-false-negative property of the held-digest
// summary: after every frame, every digest a frozen MACH holds has its bit
// set. The history depth runs from none to the 64 Validate allows, which
// also runs the summary's size from its floor up.
func TestHeldCoversHistory(t *testing.T) {
	ins := refInputs(t)
	for n := 0; n <= 64; n++ {
		cfg := DefaultConfig()
		cfg.NumMACHs = n
		cfg.CoMach = n%2 == 1
		for _, in := range ins {
			if n > 8 && n != 16 && n != 64 && in.name != "V7" {
				continue // every depth on one input, the telling ones on all
			}
			name := fmt.Sprintf("%s/%d MACHs", in.name, n)
			wb, err := NewWriteback(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wb.ShareDigests(in.tr, 0)
			for i, f := range in.tr.Frames {
				wb.ProcessFrame(f.Decoded, f.DisplayIndex, frameBase(i), framebuf.RegionMachDumps, nil)
				if d, ok := heldGap(wb); ok {
					t.Fatalf("%s: after frame %d the history holds %#x but its bit is clear", name, i, d)
				}
			}
			if want := min(n, len(in.tr.Frames)); len(wb.history) != want {
				t.Fatalf("%s: history of %d MACHs, want %d", name, len(wb.history), want)
			}
		}
	}
}
