package decoder

import (
	"testing"

	"mach/internal/codec"
	"mach/internal/dram"
	"mach/internal/framebuf"
	"mach/internal/sim"
)

func testMem() *dram.Memory { return dram.New(dram.DefaultConfig()) }

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.FreqHigh = bad.FreqLow / 2
	if bad.Validate() == nil {
		t.Fatal("high < low frequency should fail")
	}
	bad = DefaultConfig()
	bad.PowerLow = 0
	if bad.Validate() == nil {
		t.Fatal("zero power should fail")
	}
	bad = DefaultConfig()
	bad.CyclesPerBit = -1
	if bad.Validate() == nil {
		t.Fatal("negative cycles should fail")
	}
}

func TestFreqPowerSelection(t *testing.T) {
	c := DefaultConfig()
	if c.Freq(false) != c.FreqLow || c.Freq(true) != c.FreqHigh {
		t.Fatal("freq selection")
	}
	if c.Power(false) != c.PowerLow || c.Power(true) != c.PowerHigh {
		t.Fatal("power selection")
	}
}

// flatWork builds a synthetic frame work of n mabs with the given per-mab
// bits/coefficients.
func flatWork(nMabs int, mt codec.MabType, bits int32, nz int16) *codec.FrameWork {
	w := &codec.FrameWork{Type: codec.FrameI, Mabs: make([]codec.MabWork, nMabs)}
	for i := range w.Mabs {
		w.Mabs[i] = codec.MabWork{Type: mt, Bits: bits, Nonzero: nz}
		w.TotalBits += int64(bits)
	}
	return w
}

// rawWriteback returns a writeback hook that produces a raw layout and
// issues the frame's content lines through the sink.
func rawWriteback(nMabs, mabBytes int) func(func(uint64, int, int)) *framebuf.FrameLayout {
	return func(sink func(uint64, int, int)) *framebuf.FrameLayout {
		l := &framebuf.FrameLayout{
			Kind:       framebuf.LayoutRaw,
			MabBytes:   mabBytes,
			BufferBase: framebuf.RegionFrameBuffers,
		}
		for i := 0; i < nMabs; i++ {
			l.Records = append(l.Records, framebuf.MabRecord{
				Kind: framebuf.RecFull,
				Ptr:  l.BufferBase + uint64(i*mabBytes),
			})
		}
		total := nMabs * mabBytes
		for off := 0; off < total; off += 64 {
			sink(l.BufferBase+uint64(off), 64, i64min(i64(off/mabBytes), i64(nMabs-1)))
		}
		l.ContentBytes = uint64(total)
		return l
	}
}

func i64(v int) int { return v }
func i64min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDecodeFrameTiming(t *testing.T) {
	ip := New(DefaultConfig(), testMem())
	work := flatWork(100, codec.MabI, 100, 8)
	_, res := ip.DecodeFrame(0, work, false, 1, framebuf.RegionEncoded, 1000, rawWriteback(100, 48), 10, 10, 4)
	if res.BusyTime <= 0 || res.Done != res.Start+res.BusyTime {
		t.Fatalf("timing: %+v", res)
	}
	// Expected compute cycles: (base + bits*perBit + nz*perCoef + intra) per mab.
	cfg := DefaultConfig()
	perMab := cfg.CyclesPerMabBase + sim.Cycles(cfg.CyclesPerBit*100) + cfg.CyclesPerCoef*8 + cfg.CyclesIntra
	wantCompute := cfg.FreqLow.Cycles(perMab * 100)
	if res.BusyTime < wantCompute {
		t.Fatalf("busy %v below pure compute %v", res.BusyTime, wantCompute)
	}
	if ip.Stats().Frames != 1 || ip.Stats().Mabs != 100 {
		t.Fatalf("stats: %+v", ip.Stats())
	}
}

func TestRacingIsFaster(t *testing.T) {
	work := flatWork(200, codec.MabI, 200, 10)
	lo := New(DefaultConfig(), testMem())
	_, rLo := lo.DecodeFrame(0, work, false, 1, framebuf.RegionEncoded, 2000, rawWriteback(200, 48), 20, 10, 4)
	hi := New(DefaultConfig(), testMem())
	_, rHi := hi.DecodeFrame(0, work, true, 1, framebuf.RegionEncoded, 2000, rawWriteback(200, 48), 20, 10, 4)
	if rHi.BusyTime >= rLo.BusyTime {
		t.Fatalf("racing busy %v should be < low %v", rHi.BusyTime, rLo.BusyTime)
	}
	// Energy at high frequency is higher per unit time but the time halves;
	// for pure compute the cubic-ish power ratio (2.3x) wins over the 2x
	// speedup, so active energy goes up.
	if rHi.ActiveEnergy <= rLo.ActiveEnergy {
		t.Fatalf("racing energy %g should exceed low %g", rHi.ActiveEnergy, rLo.ActiveEnergy)
	}
}

func TestReferenceFetchesStallAndCache(t *testing.T) {
	mem := testMem()
	ip := New(DefaultConfig(), mem)

	// Register a raw reference layout.
	ref := &framebuf.FrameLayout{
		Kind:         framebuf.LayoutRaw,
		DisplayIndex: 0,
		MabBytes:     48,
		BufferBase:   framebuf.RegionFrameBuffers,
	}
	for i := 0; i < 100; i++ {
		ref.Records = append(ref.Records, framebuf.MabRecord{Kind: framebuf.RecFull, Ptr: ref.BufferBase + uint64(i*48)})
	}
	ip.RegisterLayout(ref, codec.FrameI)

	// A P frame with zero MVs reads the co-located reference mabs.
	work := flatWork(100, codec.MabP, 50, 4)
	work.Type = codec.FrameP
	_, res := ip.DecodeFrame(0, work, false, 1, framebuf.RegionEncoded, 500, rawWriteback(100, 48), 10, 10, 4)
	s := ip.Stats()
	if s.RefReads == 0 {
		t.Fatal("P mabs must fetch references")
	}
	if s.RefHits == 0 {
		t.Fatal("sequential reference reads should hit the decode cache sometimes")
	}
	if res.StallTime <= 0 {
		t.Fatal("reference misses must stall")
	}
	// Second identical frame: references are now cached, fewer stalls.
	before := s
	_, res2 := ip.DecodeFrame(res.Done, work, false, 1, framebuf.RegionEncoded, 500, rawWriteback(100, 48), 10, 10, 4)
	after := ip.Stats()
	newHits := after.RefHits - before.RefHits
	newReads := after.RefReads - before.RefReads
	if float64(newHits)/float64(newReads) <= float64(before.RefHits)/float64(before.RefReads) {
		t.Logf("warm hit rate %.2f vs cold %.2f", float64(newHits)/float64(newReads), float64(before.RefHits)/float64(before.RefReads))
	}
	if res2.BusyTime > res.BusyTime {
		t.Fatalf("warm decode %v should not exceed cold %v", res2.BusyTime, res.BusyTime)
	}
}

// Retiring an anchor's layout stops the decoder reading it: the pipeline
// recycles retired layouts, so a stale anchor would read a reused one.
func TestRetireLayout(t *testing.T) {
	ip := New(DefaultConfig(), testMem())
	a := &framebuf.FrameLayout{Kind: framebuf.LayoutRaw, DisplayIndex: 6, MabBytes: 48}
	b := &framebuf.FrameLayout{Kind: framebuf.LayoutRaw, DisplayIndex: 7, MabBytes: 48}
	ip.RegisterLayout(a, codec.FrameI)
	ip.RegisterLayout(b, codec.FrameP)
	ip.RetireLayout(5) // not an anchor: nothing changes
	if ip.older != a || ip.newer != b {
		t.Fatal("retiring a non-anchor dropped an anchor")
	}
	ip.RetireLayout(6)
	if ip.older != nil || ip.newer != b {
		t.Fatal("older anchor not retired")
	}
	ip.RetireLayout(7)
	if ip.newer != nil {
		t.Fatal("newer anchor not retired")
	}
}

func TestAnchorTracking(t *testing.T) {
	ip := New(DefaultConfig(), testMem())
	a := &framebuf.FrameLayout{DisplayIndex: 0}
	b := &framebuf.FrameLayout{DisplayIndex: 2}
	c := &framebuf.FrameLayout{DisplayIndex: 1}
	ip.RegisterLayout(a, codec.FrameI)
	ip.RegisterLayout(b, codec.FrameP)
	ip.RegisterLayout(c, codec.FrameB) // B frames do not shift anchors
	if ip.older != a || ip.newer != b {
		t.Fatalf("anchors = %v/%v", ip.older, ip.newer)
	}
}

func TestWritebackPostsLines(t *testing.T) {
	mem := testMem()
	ip := New(DefaultConfig(), mem)
	work := flatWork(64, codec.MabI, 10, 0)
	ip.DecodeFrame(0, work, false, 1, framebuf.RegionEncoded, 100, rawWriteback(64, 48), 8, 8, 4)
	if ip.Stats().WriteLns == 0 {
		t.Fatal("writeback must post line writes")
	}
	if mem.Stats().Writes == 0 {
		t.Fatal("writes must reach DRAM")
	}
}

func TestBitstreamReadsPosted(t *testing.T) {
	mem := testMem()
	ip := New(DefaultConfig(), mem)
	work := flatWork(64, codec.MabI, 512, 0) // 64*512 bits = 4KB of bitstream
	ip.DecodeFrame(0, work, false, 1, framebuf.RegionEncoded, 4096, rawWriteback(64, 48), 8, 8, 4)
	if ip.Stats().BitReads != 64 { // 4096/64
		t.Fatalf("bit reads = %d", ip.Stats().BitReads)
	}
	_ = sim.Time(0)
}

func TestWorkScaleCheapensDecode(t *testing.T) {
	work := flatWork(200, codec.MabI, 200, 10)
	full := New(DefaultConfig(), testMem())
	_, rFull := full.DecodeFrame(0, work, false, 1, framebuf.RegionEncoded, 2000, rawWriteback(200, 48), 20, 10, 4)
	half := New(DefaultConfig(), testMem())
	_, rHalf := half.DecodeFrame(0, work, false, 0.5, framebuf.RegionEncoded, 2000, rawWriteback(200, 48), 20, 10, 4)
	if rHalf.BusyTime >= rFull.BusyTime {
		t.Fatalf("scaled decode busy %v should be < native %v", rHalf.BusyTime, rFull.BusyTime)
	}
	if rHalf.ActiveEnergy >= rFull.ActiveEnergy {
		t.Fatalf("scaled decode energy %g should be < native %g", rHalf.ActiveEnergy, rFull.ActiveEnergy)
	}

	// The scale is monotone: cheaper rungs never cost more cycles.
	prev := sim.Time(0)
	for _, scale := range []float64{0.25, 0.5, 0.75, 1} {
		ip := New(DefaultConfig(), testMem())
		_, res := ip.DecodeFrame(0, work, false, scale, framebuf.RegionEncoded, 2000, rawWriteback(200, 48), 20, 10, 4)
		if res.BusyTime < prev {
			t.Fatalf("scale %g busy %v below a cheaper rung's %v", scale, res.BusyTime, prev)
		}
		prev = res.BusyTime
	}
}

func TestWorkScaleBounds(t *testing.T) {
	work := flatWork(4, codec.MabI, 10, 1)
	for _, bad := range []float64{0, -1, 1.5, nanF()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("work scale %g: no panic", bad)
				}
			}()
			ip := New(DefaultConfig(), testMem())
			ip.DecodeFrame(0, work, false, bad, framebuf.RegionEncoded, 100, rawWriteback(4, 48), 2, 2, 4)
		}()
	}
}

func nanF() float64 {
	z := 0.0
	return z / z
}
