package mach

import (
	"testing"
	"testing/quick"

	"mach/internal/codec"
	"mach/internal/framebuf"
	"mach/internal/hashes"
)

// ReconstructFromGab inverts ComputeGab: mab[i] = gab[i] + base (mod 256).
// The display controller performs this addition when resolving gab-mode
// content (§4.4, "add the base back to each pixel to restore the mab").
func ReconstructFromGab(gab []byte, base [3]byte, mab []byte) {
	if len(mab) < len(gab) {
		panic("mach: bad mab buffer size")
	}
	for i := 0; i < len(gab); i += 3 {
		mab[i] = gab[i] + base[0]
		mab[i+1] = gab[i+1] + base[1]
		mab[i+2] = gab[i+2] + base[2]
	}
}

func TestGabRoundTrip(t *testing.T) {
	f := func(raw []byte) bool {
		// Pad to whole pixels, minimum one.
		for len(raw) < 3 || len(raw)%3 != 0 {
			raw = append(raw, byte(len(raw)))
		}
		gab := make([]byte, len(raw))
		var base [3]byte
		ComputeGab(raw, &base, gab)
		back := make([]byte, len(raw))
		ReconstructFromGab(gab, base, back)
		for i := range raw {
			if back[i] != raw[i] {
				return false
			}
		}
		return gab[0] == 0 && gab[1] == 0 && gab[2] == 0 // first pixel is always zero-delta
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGabPureColorsShareZeroGab(t *testing.T) {
	blue := make([]byte, 48)
	yellow := make([]byte, 48)
	for i := 0; i < 48; i += 3 {
		blue[i], blue[i+1], blue[i+2] = 10, 20, 200
		yellow[i], yellow[i+1], yellow[i+2] = 240, 230, 30
	}
	gb, gy := make([]byte, 48), make([]byte, 48)
	var bb, by [3]byte
	ComputeGab(blue, &bb, gb)
	ComputeGab(yellow, &by, gy)
	for i := range gb {
		if gb[i] != 0 || gy[i] != 0 {
			t.Fatal("pure colour gabs must be all-zero")
		}
	}
	if bb == by {
		t.Fatal("bases must differ")
	}
}

func TestDigestCacheLRU(t *testing.T) {
	c := newDigestCache(8, 4) // 2 sets
	// Digests 0,2,4,6 land in set 0; 8 evicts the LRU among them.
	for _, d := range []uint32{0, 2, 4, 6} {
		c.insert(d, 0, uint64(d)*100, 7)
	}
	if _, origin, hit, _ := c.lookup(0, 0, false); !hit || origin != 7 {
		t.Fatal("0 should hit with origin 7")
	}
	c.insert(8, 0, 800, 9) // evicts 2 (LRU: 0 was just touched)
	if _, _, hit, _ := c.lookup(2, 0, false); hit {
		t.Fatal("2 should be evicted")
	}
	if ptr, origin, hit, _ := c.lookup(8, 0, false); !hit || ptr != 800 || origin != 9 {
		t.Fatalf("8: hit=%v ptr=%d origin=%d", hit, ptr, origin)
	}
	if c.occupancy() != 4 {
		t.Fatalf("occupancy = %d", c.occupancy())
	}
	if len(c.dumpInto(nil)) != 4 {
		t.Fatalf("dump = %d", len(c.dumpInto(nil)))
	}
}

func TestDigestCacheAuxCollision(t *testing.T) {
	c := newDigestCache(8, 4)
	c.insert(42, 1, 100, 0)
	if _, _, hit, coll := c.lookup(42, 2, true); hit || !coll {
		t.Fatalf("aux mismatch should report collision: hit=%v coll=%v", hit, coll)
	}
	if _, _, hit, coll := c.lookup(42, 1, true); !hit || coll {
		t.Fatal("matching aux should hit")
	}
	// Without aux checking the collision is invisible.
	if _, _, hit, _ := c.lookup(42, 2, false); !hit {
		t.Fatal("aux-blind lookup should hit")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.EntriesPerMACH = 255
	if bad.Validate() == nil {
		t.Fatal("entries not divisible by ways should fail")
	}
	bad = DefaultConfig()
	bad.MabSize = 5
	if bad.Validate() == nil {
		t.Fatal("mab size 5 should fail")
	}
	bad = DefaultConfig()
	bad.CoMach = true
	bad.CoMachEntries = 0
	if bad.Validate() == nil {
		t.Fatal("CO-MACH without entries should fail")
	}
	if DefaultConfig().MabBytes() != 48 {
		t.Fatal("mab bytes")
	}
	if DefaultConfig().MetaBytesPerMatch() != 7 {
		t.Fatal("gab meta bytes")
	}
	cfg := DefaultConfig()
	cfg.Gradient = false
	if cfg.MetaBytesPerMatch() != 4 {
		t.Fatal("mab meta bytes")
	}
	if DefaultConfig().SRAMBytes() <= 0 {
		t.Fatal("SRAM size")
	}
}

// flatFrame builds a frame of uniform colour: every mab identical.
func flatFrame(w, h int, r, g, b byte) *codec.Frame {
	f := codec.NewFrame(w, h)
	for i := 0; i < len(f.Pix); i += 3 {
		f.Pix[i], f.Pix[i+1], f.Pix[i+2] = r, g, b
	}
	return f
}

// uniqueFrame builds a frame where every mab's content is distinct.
func uniqueFrame(w, h int, salt byte) *codec.Frame {
	f := codec.NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte(x)^salt, byte(y)+salt, byte(x*y+int(salt)))
		}
	}
	return f
}

func TestWritebackFlatFrameIntraMatches(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Gradient = false
	wb, err := NewWriteback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr := flatFrame(32, 16, 40, 50, 60) // 32 mabs, all identical
	layout := wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	s := wb.Stats()
	if s.Mabs != 32 {
		t.Fatalf("mabs = %d", s.Mabs)
	}
	if s.NoMatches != 1 || s.IntraMatches != 31 {
		t.Fatalf("matches: %+v", s)
	}
	if s.ContentBytes != 48 {
		t.Fatalf("content bytes = %d", s.ContentBytes)
	}
	if layout.Records[0].Kind != framebuf.RecFull {
		t.Fatal("first mab must be full")
	}
	for _, rec := range layout.Records[1:] {
		if rec.Kind != framebuf.RecPointer || rec.Ptr != layout.Records[0].Ptr {
			t.Fatalf("record = %+v", rec)
		}
	}
	if len(layout.Dump) != 1 {
		t.Fatalf("dump entries = %d", len(layout.Dump))
	}
}

func TestWritebackInterMatches(t *testing.T) {
	cfg := DefaultConfig()
	wb, _ := NewWriteback(cfg)
	fr := uniqueFrame(32, 16, 0)
	wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	first := wb.Stats()
	if first.InterMatches != 0 {
		t.Fatalf("first frame inter matches = %d", first.InterMatches)
	}
	// The identical frame again: every mab inter-matches frame 0.
	layout := wb.ProcessFrame(fr, 1, framebuf.RegionFrameBuffers+1<<20, framebuf.RegionMachDumps+1<<20, nil)
	s := wb.Stats()
	if s.InterMatches == 0 {
		t.Fatal("repeat frame should inter-match")
	}
	sawDigest := false
	for _, rec := range layout.Records {
		if rec.Kind == framebuf.RecDigest {
			sawDigest = true
			break
		}
	}
	if !sawDigest {
		t.Fatal("layout iii should store inter matches as digests")
	}
	// Under layout ii the same content must produce pointers instead.
	cfg2 := DefaultConfig()
	cfg2.Layout = framebuf.LayoutPtr
	wb2, _ := NewWriteback(cfg2)
	wb2.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	layout2 := wb2.ProcessFrame(fr, 1, framebuf.RegionFrameBuffers+1<<20, framebuf.RegionMachDumps+1<<20, nil)
	for _, rec := range layout2.Records {
		if rec.Kind == framebuf.RecDigest {
			t.Fatal("layout ii must not use digest records")
		}
	}
}

func TestWritebackGabBeatsMabOnRamps(t *testing.T) {
	// A block-ramp frame: every mab flat but a different colour. mab mode
	// finds nothing; gab mode matches everything to the zero gradient.
	fr := codec.NewFrame(64, 16)
	idx := 0
	for y0 := 0; y0 < 16; y0 += 4 {
		for x0 := 0; x0 < 64; x0 += 4 {
			for dy := 0; dy < 4; dy++ {
				for dx := 0; dx < 4; dx++ {
					fr.Set(x0+dx, y0+dy, byte(10+idx*3), byte(20+idx*2), byte(30+idx))
				}
			}
			idx++
		}
	}
	mabCfg := DefaultConfig()
	mabCfg.Gradient = false
	wbM, _ := NewWriteback(mabCfg)
	wbM.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)

	gabCfg := DefaultConfig()
	wbG, _ := NewWriteback(gabCfg)
	wbG.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)

	if wbM.Stats().MatchRate() >= wbG.Stats().MatchRate() {
		t.Fatalf("gab %.2f should beat mab %.2f on ramps", wbG.Stats().MatchRate(), wbM.Stats().MatchRate())
	}
	if got := wbG.Stats().IntraMatches; got != int64(fr.NumMabs(4)-1) {
		t.Fatalf("gab intra matches = %d", got)
	}
	if wbG.Stats().Savings() <= wbM.Stats().Savings() {
		t.Fatal("gab savings should beat mab savings")
	}
}

func TestWritebackNoMatchOverhead(t *testing.T) {
	// All-unique content: MACH must cost extra bytes (metadata), exactly
	// the paper's "4 more bytes" per unmatched mab (plus base in gab mode).
	cfg := DefaultConfig()
	cfg.Gradient = false
	cfg.NumMACHs = 0 // no history, keep it a single-frame scenario
	wb, _ := NewWriteback(cfg)
	fr := uniqueFrame(64, 32, 7)
	wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	s := wb.Stats()
	if s.IntraMatches != 0 {
		t.Fatalf("unique frame matched %d", s.IntraMatches)
	}
	if s.Savings() >= 0 {
		t.Fatalf("unique content should cost, savings = %.3f", s.Savings())
	}
	wantMeta := uint64(fr.NumMabs(4) * 4)
	if s.MetaBytes < wantMeta {
		t.Fatalf("meta bytes = %d want >= %d", s.MetaBytes, wantMeta)
	}
}

func TestWritebackRawLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Layout = framebuf.LayoutRaw
	wb, _ := NewWriteback(cfg)
	fr := flatFrame(32, 16, 1, 2, 3)
	var sunk int
	layout := wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, 0, func(addr uint64, size int, ord int) {
		sunk += size
	})
	s := wb.Stats()
	if s.ContentBytes != uint64(fr.SizeBytes()) {
		t.Fatalf("raw content = %d", s.ContentBytes)
	}
	if s.MetaBytes != 0 {
		t.Fatalf("raw meta = %d", s.MetaBytes)
	}
	if s.Savings() != 0 {
		t.Fatalf("raw savings = %v", s.Savings())
	}
	if sunk < fr.SizeBytes() {
		t.Fatalf("sink received %d < %d", sunk, fr.SizeBytes())
	}
	if layout.ContentBytes != uint64(fr.SizeBytes()) {
		t.Fatal("layout content bytes")
	}
}

func TestWritebackSinkLineAligned(t *testing.T) {
	wb, _ := NewWriteback(DefaultConfig())
	fr := uniqueFrame(32, 32, 3)
	wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, func(addr uint64, size int, ord int) {
		if addr%64 != 0 {
			t.Fatalf("unaligned sink write %#x", addr)
		}
		if size != 64 {
			t.Fatalf("sink write size %d", size)
		}
		if ord < 0 || ord > fr.NumMabs(4) {
			t.Fatalf("sink ordinal %d out of range", ord)
		}
	})
	if wb.Stats().LineWrites == 0 {
		t.Fatal("no line writes issued")
	}
}

func TestCoalescingReducesLineWrites(t *testing.T) {
	fr := flatFrame(64, 32, 9, 9, 9) // heavy metadata traffic, tiny content
	on := DefaultConfig()
	wbOn, _ := NewWriteback(on)
	wbOn.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)

	off := DefaultConfig()
	off.Coalesce = false
	wbOff, _ := NewWriteback(off)
	wbOff.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)

	if wbOn.Stats().LineWrites >= wbOff.Stats().LineWrites {
		t.Fatalf("coalescing %d lines should beat naive %d", wbOn.Stats().LineWrites, wbOff.Stats().LineWrites)
	}
}

func TestPopularityTracking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackPopularity = true
	wb, _ := NewWriteback(cfg)
	wb.ProcessFrame(flatFrame(32, 16, 5, 5, 5), 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	s := wb.Stats()
	if len(s.DigestMatches) != 1 {
		t.Fatalf("digests = %d", len(s.DigestMatches))
	}
	for _, n := range s.DigestMatches {
		if n != 31 {
			t.Fatalf("top digest matches = %d", n)
		}
	}
}

func TestCollisionShadowTracking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TrackCollisions = true
	wb, _ := NewWriteback(cfg)
	wb.ProcessFrame(uniqueFrame(64, 32, 1), 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	wb.ProcessFrame(uniqueFrame(64, 32, 1), 1, framebuf.RegionFrameBuffers+1<<20, framebuf.RegionMachDumps+1<<20, nil)
	// Identical content: no false matches expected.
	if wb.Stats().FalseMatches != 0 {
		t.Fatalf("false matches = %d", wb.Stats().FalseMatches)
	}
}

func TestAnalyzerFig7bSemantics(t *testing.T) {
	an := NewAnalyzer(16, 4, false)
	fr := flatFrame(32, 16, 7, 7, 7)
	an.ProcessFrame(fr)
	if an.IntraMatches != 31 || an.NoMatches != 1 {
		t.Fatalf("frame 0: intra=%d none=%d", an.IntraMatches, an.NoMatches)
	}
	an.ProcessFrame(fr) // every mab now inter-matches... except intra wins within frame
	// First mab of frame 1 inter-matches; the remaining 31 intra-match it.
	if an.InterMatches != 1 {
		t.Fatalf("inter = %d", an.InterMatches)
	}
	if an.IntraRate()+an.InterRate()+an.NoMatchRate() < 0.999 {
		t.Fatal("rates must sum to 1")
	}
	if an.Savings() <= 0 {
		t.Fatalf("flat content savings = %v", an.Savings())
	}
}

func TestAnalyzerWindowExpiry(t *testing.T) {
	an := NewAnalyzer(1, 4, false)
	a := flatFrame(16, 4, 1, 1, 1)
	b := flatFrame(16, 4, 2, 2, 2)
	an.ProcessFrame(a) // vocab: {1}
	an.ProcessFrame(b) // vocab: {2}; a expired
	an.ProcessFrame(a) // content 1 no longer in window
	if an.InterMatches != 0 {
		t.Fatalf("expired window should not inter-match, got %d", an.InterMatches)
	}
}

func TestAnalyzerBeatsOrEqualsWriteback(t *testing.T) {
	// The optimal (unbounded) matcher can never save less than the
	// capacity-limited MACH on the same stream and window.
	frames := []*codec.Frame{
		uniqueFrame(64, 32, 1),
		flatFrame(64, 32, 3, 3, 3),
		uniqueFrame(64, 32, 1),
		flatFrame(64, 32, 8, 8, 8),
	}
	cfg := DefaultConfig()
	wb, _ := NewWriteback(cfg)
	an := NewAnalyzer(cfg.NumMACHs, cfg.MabSize, cfg.Gradient)
	for i, fr := range frames {
		wb.ProcessFrame(fr, i, framebuf.RegionFrameBuffers+uint64(i)<<20, framebuf.RegionMachDumps+uint64(i)<<20, nil)
		an.ProcessFrame(fr)
	}
	// Compare content+meta only (the writeback also pays dump bytes).
	wbBytes := wb.Stats().ContentBytes + wb.Stats().MetaBytes
	anBytes := an.ContentBytes + an.MetaBytes
	if anBytes > wbBytes {
		t.Fatalf("optimal wrote %d > MACH %d", anBytes, wbBytes)
	}
}

func TestCoMachDetectsInjectedCollisions(t *testing.T) {
	// Force digest collisions by using a weak "digest": not possible via
	// the public API, so instead verify the machinery: same CRC32 content
	// inserted, then a lookup with different aux reports a collision and
	// the entry lands in CO-MACH.
	cfg := DefaultConfig()
	cfg.CoMach = true
	wb, _ := NewWriteback(cfg)
	fr := uniqueFrame(32, 32, 4)
	wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	s := wb.Stats()
	// Real CRC32 collisions are ~never in 64 mabs; the path exercised here
	// is that CO-MACH mode runs cleanly end to end.
	if s.Mabs != 64 {
		t.Fatalf("mabs = %d", s.Mabs)
	}
	if s.DetectedCollisions != 0 {
		t.Fatalf("unexpected collisions = %d", s.DetectedCollisions)
	}
}

func TestDCC(t *testing.T) {
	flat := make([]byte, 48)
	for i := range flat {
		flat[i] = 100
	}
	if got := DCCSize(flat); got >= 48 {
		t.Fatalf("flat DCC size = %d", got)
	}
	noisy := make([]byte, 48)
	for i := range noisy {
		noisy[i] = byte(i*97 + 13)
	}
	if got := DCCSize(noisy); got > 49 {
		t.Fatalf("noisy DCC size = %d (should cap at raw+1)", got)
	}
	var s DCCStats
	s.Observe(flat)
	s.Observe(noisy)
	if s.Blocks != 2 || s.RawBytes != 96 {
		t.Fatalf("stats = %+v", s)
	}
	if s.Savings() <= 0 {
		t.Fatalf("savings = %v", s.Savings())
	}
}

func TestDCCPanicsOnPartialPixels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	DCCSize(make([]byte, 47))
}

func TestWritebackWithMD5Digest(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Digest = hashes.MD5
	wb, err := NewWriteback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wb.ProcessFrame(flatFrame(32, 16, 1, 2, 3), 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	if wb.Stats().IntraMatches != 31 {
		t.Fatalf("md5 matches = %d", wb.Stats().IntraMatches)
	}
}
