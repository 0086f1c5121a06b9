package mach

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mach/internal/codec"
	"mach/internal/framebuf"
	"mach/internal/trace"
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

// write is one line write an engine issues to its sink.
type write struct {
	addr uint64
	size int
	mab  int
}

// clipRun is everything an engine emits over a clip.
type clipRun struct {
	stats   Stats
	layouts []*framebuf.FrameLayout
	writes  []write
}

// runClip pushes every frame of tr through wb in decode order.
func runClip(wb *Writeback, tr *trace.Trace) clipRun {
	var run clipRun
	sink := func(addr uint64, size int, mab int) { run.writes = append(run.writes, write{addr, size, mab}) }
	for i, f := range tr.Frames {
		dump := framebuf.RegionMachDumps + uint64(i%8)*(1<<16)
		run.layouts = append(run.layouts, wb.ProcessFrame(f.Decoded, f.DisplayIndex, frameBase(i), dump, sink))
	}
	run.stats = wb.Stats()
	return run
}

// TestPrehashParallelEquivalence is the engine-level half of the digest
// table's guarantee: for every configuration axis that changes what the
// prehash computes, engines reading a shared table must emit stats,
// layouts and write streams identical to an engine that hashes every frame
// itself. Two table-fed engines start on one cold table at once, so
// `go test -race` sees concurrent fills, and a third then reads the warm
// table. TrackCollisions engines keep hashing per session.
func TestPrehashParallelEquivalence(t *testing.T) {
	with := func(f func(*Config)) Config { c := DefaultConfig(); f(&c); return c }
	cases := []struct {
		name  string
		cfg   Config
		shift int
	}{
		{"gab", DefaultConfig(), 0},
		{"mab", with(func(c *Config) { c.Gradient = false }), 0},
		{"comach", with(func(c *Config) { c.CoMach = true }), 0},
		{"shadow", with(func(c *Config) { c.TrackCollisions = true }), 0},
		{"ptr-only", with(func(c *Config) { c.Layout = framebuf.LayoutPtr }), 0},
		{"gab-shift3", DefaultConfig(), 3},
	}
	frames := frameSequence(160, 96, 6, 77)
	for _, c := range cases {
		engine := func(tr *trace.Trace) *Writeback {
			wb, err := NewWriteback(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			wb.SetQuantShift(c.shift)
			if tr != nil {
				wb.ShareDigests(tr, c.shift)
			}
			return wb
		}
		want := runClip(engine(nil), clipTrace(frames, c.cfg.MabSize))
		tr := clipTrace(frames, c.cfg.MabSize)
		a, b := engine(tr), engine(tr)
		if shared := a.tables[c.shift] != nil; shared == c.cfg.TrackCollisions {
			t.Fatalf("%s: engine reads a shared table: %v", c.name, shared)
		}
		var got [3]clipRun
		var wg sync.WaitGroup
		for i, wb := range []*Writeback{a, b} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runClip(wb, tr)
			}()
		}
		wg.Wait()
		got[2] = runClip(engine(tr), tr)
		for i := range got {
			if !reflect.DeepEqual(want, got[i]) {
				t.Errorf("%s: table-fed engine %d diverged from the self-hashed one", c.name, i)
			}
		}
	}
}

// TestParallelWriteStreamIdentical: however many sessions race to fill one
// cold digest table, each emits the line-write stream of an engine that
// hashes every frame itself.
func TestParallelWriteStreamIdentical(t *testing.T) {
	cfg := DefaultConfig()
	frames := frameSequence(48, 24, 5, 19)
	engine := func(tr *trace.Trace) *Writeback {
		wb, err := NewWriteback(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if tr != nil {
			wb.ShareDigests(tr, 0)
		}
		return wb
	}
	seq := runClip(engine(nil), clipTrace(frames, cfg.MabSize)).writes
	if len(seq) == 0 {
		t.Fatal("no writes recorded")
	}
	for _, sessions := range []int{2, 7} {
		tr := clipTrace(frames, cfg.MabSize)
		got := make([][]write, sessions)
		var wg sync.WaitGroup
		for i := range got {
			wb := engine(tr)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = runClip(wb, tr).writes
			}()
		}
		wg.Wait()
		for i, ws := range got {
			if !reflect.DeepEqual(seq, ws) {
				t.Fatalf("sessions=%d: session %d's write stream diverged (%d vs %d writes)", sessions, i, len(ws), len(seq))
			}
		}
	}
}

// TestShareDigestsRejectsForeignMabSize: a table holds one mab size, the
// trace's own, so an engine of another size must not read it.
func TestShareDigestsRejectsForeignMabSize(t *testing.T) {
	wb, err := NewWriteback(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("4-pixel engine shared a trace of 8-pixel mabs")
		}
	}()
	wb.ShareDigests(clipTrace(frameSequence(32, 16, 1, 1), 8), 0)
}
