package display

import (
	"reflect"
	"slices"
	"testing"

	"mach/internal/dram"
	"mach/internal/framebuf"
	"mach/internal/sim"
)

// refScanOut is ScanOut with the per-line pacing formulas it replaced with
// one pacing time per group, kept as its oracle: every line or record
// divides its own group start by the frame's line or record count.
func refScanOut(c *Controller, start sim.Time, l *framebuf.FrameLayout) int64 {
	before := c.stats.MemLineReads
	period := c.cfg.FramePeriod()
	lineBytes := uint64(c.cfg.LineBytes)
	const burstLines = 4

	switch l.Kind {
	case framebuf.LayoutRaw:
		frameBytes := uint64(len(l.Records) * l.MabBytes)
		total := int64((frameBytes + lineBytes - 1) / lineBytes)
		for i := int64(0); i < total; i++ {
			at := start + sim.Time(int64(period)*(i/burstLines*burstLines)/max(total, 1))
			c.readLine(at, l.BufferBase+uint64(i)*lineBytes, false)
		}
	default:
		n := len(l.Records)
		for i, rec := range l.Records {
			at := start + sim.Time(int64(period)*int64(i/256*256)/int64(max(n, 1)))
			if c.readLine(at, (l.MetaBase+uint64(i*4))&^(lineBytes-1), false) {
				c.stats.MetaLineReads++
			}
			switch rec.Kind {
			case framebuf.RecDigest:
				c.stats.DigestRecords++
				if _, hit := c.mbLookup(rec.Digest); hit {
					c.stats.MachBufHits++
					continue
				}
				c.stats.MachBufMisses++
				c.readLine(at, l.DumpBase, false)
				c.readContent(at, rec.Ptr, l.MabBytes)
			default:
				c.stats.PointerRecords++
				c.readContent(at, rec.Ptr, l.MabBytes)
			}
		}
		if l.Gradient {
			baseStart := l.MetaBase + uint64(len(l.Records)*4)
			baseBytes := uint64(len(l.Records) * 3)
			group := 16 * lineBytes
			for off := uint64(0); off < baseBytes; off += lineBytes {
				at := start + sim.Time(int64(period)*int64(off/group*group)/int64(max(baseBytes, 1)))
				if c.readLine(at, (baseStart+off)&^(lineBytes-1), false) {
					c.stats.MetaLineReads++
				}
			}
		}
	}

	c.stats.FramesShown++
	c.stats.ActiveEnergy += c.cfg.Power.Over(period)
	return c.stats.MemLineReads - before
}

// scatteredLayout builds an n-record pointer layout whose content is spread
// over many DRAM rows and banks, with digest records under LayoutPtrDigest,
// resolved the way the MACH writeback resolves them: some in the dump,
// pointing where their entry does, and the rest at the buffer base.
func scatteredLayout(n int, kind framebuf.LayoutKind, gradient bool) *framebuf.FrameLayout {
	l := &framebuf.FrameLayout{
		Kind: kind, MabBytes: 48, Gradient: gradient,
		BufferBase: framebuf.RegionFrameBuffers,
		MetaBase:   framebuf.RegionFrameBuffers + 1<<22,
		DumpBase:   framebuf.RegionMachDumps,
	}
	for i := 0; i < n; i++ {
		rec := framebuf.MabRecord{Kind: framebuf.RecFull, Ptr: l.BufferBase + uint64(i*4099%(1<<20))}
		if kind == framebuf.LayoutPtrDigest && i%5 == 0 {
			rec = framebuf.MabRecord{Kind: framebuf.RecDigest, Ptr: l.BufferBase, Digest: uint32(i)}
			if i%3 != 0 {
				rec.Ptr = l.BufferBase + uint64(i)*977
				l.Dump = append(l.Dump, framebuf.DumpEntry{Digest: rec.Digest, Ptr: rec.Ptr})
			}
		}
		l.Records = append(l.Records, rec)
	}
	return l
}

// TestScanOutMatchesReference scans the same frames through ScanOut and
// refScanOut on twin controllers and memories, with frame sizes that leave
// partial pacing groups, and compares the display counters, the display
// state and every bank's row, queue and refresh state after each frame.
// The memory keeps its row-open timeout and refresh, so the bank state
// records the pacing times of the last reads to each bank.
func TestScanOutMatchesReference(t *testing.T) {
	layouts := []*framebuf.FrameLayout{
		rawLayout(1), rawLayout(5), rawLayout(301), rawLayout(2000),
		scatteredLayout(1, framebuf.LayoutPtr, false),
		scatteredLayout(700, framebuf.LayoutPtr, false),
		scatteredLayout(513, framebuf.LayoutPtr, true),
		scatteredLayout(1000, framebuf.LayoutPtrDigest, true),
		scatteredLayout(255, framebuf.LayoutPtrDigest, false),
	}
	for _, noCache := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.UseDisplayCache = !noCache
		memCfg := dram.DefaultConfig()
		memCfg.Channels, memCfg.BanksPerRank = 1, 16
		gotMem, wantMem := dram.New(memCfg), dram.New(memCfg)
		got, want := New(cfg, gotMem), New(cfg, wantMem)
		start := sim.Time(0)
		for i, l := range layouts {
			got.Prefetch(start, l)
			want.Prefetch(start, l)
			if g, w := got.ScanOut(start, l), refScanOut(want, start, l); g != w {
				t.Fatalf("frame %d: %d line reads want %d", i, g, w)
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("frame %d: stats %+v want %+v", i, g, w)
			}
			if !reflect.DeepEqual(got.dcache, want.dcache) || !slices.Equal(got.machBuf, want.machBuf) || got.mbTick != want.mbTick {
				t.Fatalf("frame %d: display state differs", i)
			}
			if !reflect.DeepEqual(gotMem, wantMem) {
				t.Fatalf("frame %d: memory state differs:\n got %+v\nwant %+v", i, gotMem.Stats(), wantMem.Stats())
			}
			start += cfg.FramePeriod()
		}
	}
}
