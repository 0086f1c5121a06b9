package mach

import (
	"math/rand"
	"reflect"
	"testing"

	"mach/internal/codec"
	"mach/internal/framebuf"
	"mach/internal/par"
)

// noiseFrame builds a seeded pseudo-random frame: a mix of repeated and
// unique mabs so every classification outcome (none/intra/inter) occurs.
func noiseFrame(w, h int, rng *rand.Rand) *codec.Frame {
	f := codec.NewFrame(w, h)
	for i := range f.Pix {
		f.Pix[i] = byte(rng.Intn(256))
	}
	// Stamp a flat band so intra matches are guaranteed.
	for y := 0; y < h/4; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, 10, 20, 30)
		}
	}
	return f
}

// frameSequence builds a short clip with inter-frame repetition: later
// frames reuse earlier content shifted, so history (inter) matches occur.
func frameSequence(w, h, n int, seed int64) []*codec.Frame {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*codec.Frame, n)
	for i := range frames {
		if i > 0 && i%2 == 0 {
			frames[i] = frames[i-1].Clone() // exact repeat: inter matches
			continue
		}
		frames[i] = noiseFrame(w, h, rng)
	}
	return frames
}

// runClip pushes a clip through a fresh Writeback and returns the stats and
// every layout produced.
func runClip(t *testing.T, cfg Config, pool *par.Pool, frames []*codec.Frame) (Stats, []*framebuf.FrameLayout) {
	t.Helper()
	wb, err := NewWriteback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if pool != nil {
		wb.SetPool(pool)
	}
	var layouts []*framebuf.FrameLayout
	for i, fr := range frames {
		base := framebuf.RegionFrameBuffers + uint64(i%8)*(1<<22)
		dump := framebuf.RegionMachDumps + uint64(i%8)*(1<<16)
		layouts = append(layouts, wb.ProcessFrame(fr, i, base, dump, nil))
	}
	return wb.Stats(), layouts
}

// TestPrehashParallelEquivalence is the engine-level half of the
// determinism guarantee: for every configuration axis that changes what the
// prehash computes (gab mode, CO-MACH aux, collision tracking, digest
// function), a pooled Writeback must produce stats, layouts and write
// streams identical to the sequential engine. 160x96 is 960 mabs, two
// prehashGrain shards, so every pooled run hashes on two goroutines at once
// and `go test -race` sees the workers' writes.
func TestPrehashParallelEquivalence(t *testing.T) {
	const w, h, n = 160, 96, 6
	configs := map[string]func() Config{
		"gab":      DefaultConfig,
		"mab":      func() Config { c := DefaultConfig(); c.Gradient = false; return c },
		"comach":   func() Config { c := DefaultConfig(); c.CoMach = true; return c },
		"shadow":   func() Config { c := DefaultConfig(); c.TrackCollisions = true; return c },
		"ptr-only": func() Config { c := DefaultConfig(); c.Layout = framebuf.LayoutPtr; return c },
	}
	names := []string{"gab", "mab", "comach", "shadow", "ptr-only"}
	for _, name := range names {
		cfg := configs[name]()
		frames := frameSequence(w, h, n, 77)
		seqStats, seqLayouts := runClip(t, cfg, nil, frames)
		for _, workers := range []int{2, 3, 8} {
			parStats, parLayouts := runClip(t, cfg, par.New(workers), frames)
			if !reflect.DeepEqual(seqStats, parStats) {
				t.Errorf("%s workers=%d: stats diverged\nseq: %+v\npar: %+v", name, workers, seqStats, parStats)
			}
			if len(seqLayouts) != len(parLayouts) {
				t.Fatalf("%s workers=%d: layout count %d vs %d", name, workers, len(parLayouts), len(seqLayouts))
			}
			for i := range seqLayouts {
				if !reflect.DeepEqual(seqLayouts[i], parLayouts[i]) {
					t.Errorf("%s workers=%d: frame %d layout diverged", name, workers, i)
				}
			}
		}
	}
}

// TestParallelWriteStreamIdentical compares the raw sink streams — the
// exact (addr, size, ordinal) sequence the DRAM model would price.
func TestParallelWriteStreamIdentical(t *testing.T) {
	type write struct {
		addr uint64
		size int
		mab  int
	}
	collect := func(pool *par.Pool) []write {
		wb, err := NewWriteback(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if pool != nil {
			wb.SetPool(pool)
		}
		var ws []write
		frames := frameSequence(48, 24, 5, 19)
		for i, fr := range frames {
			wb.ProcessFrame(fr, i, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps,
				func(addr uint64, size int, mab int) { ws = append(ws, write{addr, size, mab}) })
		}
		return ws
	}
	seq := collect(nil)
	if len(seq) == 0 {
		t.Fatal("no writes recorded")
	}
	for _, workers := range []int{2, 7} {
		got := collect(par.New(workers))
		if !reflect.DeepEqual(seq, got) {
			t.Fatalf("workers=%d: write stream diverged (%d vs %d writes)", workers, len(got), len(seq))
		}
	}
}

// TestSetPoolSingleWorkerInline: a 1-wide pool must not allocate scratch
// or change behaviour.
func TestSetPoolSingleWorkerInline(t *testing.T) {
	wb, err := NewWriteback(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	wb.SetPool(par.New(1))
	if wb.scratch != nil {
		t.Fatal("1-wide pool allocated worker scratch")
	}
	fr := frameSequence(16, 16, 1, 3)[0]
	layout := wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	if layout == nil || len(layout.Records) == 0 {
		t.Fatal("inline pooled engine produced no records")
	}
}
