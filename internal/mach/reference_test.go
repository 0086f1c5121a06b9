package mach

import (
	"fmt"
	"testing"

	"mach/internal/codec"
	"mach/internal/framebuf"
	"mach/internal/hashes"
	"mach/internal/trace"
	"mach/internal/video"
)

// This file is a naive reference model of the MACH writeback (§4), the
// oracle TestWritebackMatchesReference runs the production engine against.
// It keeps one digest map per MACH with plain per-set LRU: no entry slots,
// free lists, prehash slots, digest tables or coalescing buffers, and it
// hashes every mab itself, straight from the frame's pixels.

// refEntry is one MACH entry of the reference model.
type refEntry struct {
	aux    uint16
	ptr    uint64
	origin int    // display index of the frame whose buffer holds the content
	used   uint64 // last insert or hit, for LRU
}

// refMACH is a set-associative MACH as a map: a set holds at most ways
// keys, and a put into a full set evicts its least recently used key.
// Keys are digests, or digest<<16|aux for CO-MACH; either way the set is
// picked by the digest's low bits.
type refMACH struct {
	sets, ways int
	m          map[uint64]*refEntry
	members    map[uint32][]uint64 // set -> its keys
	clock      uint64
}

func newRefMACH(entries, ways int) *refMACH {
	return &refMACH{sets: entries / ways, ways: ways, m: map[uint64]*refEntry{}, members: map[uint32][]uint64{}}
}

// hit looks key up and, when present, marks it most recently used.
func (c *refMACH) hit(key uint64) *refEntry {
	e := c.m[key]
	if e != nil {
		c.clock++
		e.used = c.clock
	}
	return e
}

func (c *refMACH) put(key uint64, digest uint32, e refEntry) {
	set := digest & uint32(c.sets-1)
	keys := c.members[set]
	if len(keys) == c.ways {
		lru := 0
		for i, k := range keys {
			if c.m[k].used < c.m[keys[lru]].used {
				lru = i
			}
		}
		delete(c.m, keys[lru])
		keys = append(keys[:lru], keys[lru+1:]...)
	}
	c.clock++
	e.used = c.clock
	c.m[key] = &e
	c.members[set] = append(keys, key)
}

// refWriteback runs the reference model over frames in decode order.
type refWriteback struct {
	cfg   Config
	shift int
	cur   *refMACH
	hist  []*refMACH // newest first
	stats Stats
}

// hash digests the mab at (x0, y0) as §4.3 and §6.3 define it.
func (r *refWriteback) hash(fr *codec.Frame, x0, y0 int) (uint32, uint16) {
	n := r.cfg.MabSize
	mab := make([]byte, n*n*codec.BytesPerPixel)
	fr.CopyBlock(x0, y0, n, mab)
	for i := range mab {
		mab[i] &= byte(0xFF) << r.shift
	}
	if r.cfg.Gradient {
		gab := make([]byte, len(mab))
		var base [3]byte
		ComputeGab(mab, &base, gab)
		mab = gab
	}
	return hashes.Digest32(r.cfg.Digest, mab), hashes.CRC16CCITT(mab)
}

// frame classifies every mab of fr and returns its records.
func (r *refWriteback) frame(fr *codec.Frame, di int, bufferBase uint64) []framebuf.MabRecord {
	cfg := r.cfg
	n := cfg.MabSize
	mabBytes := uint64(n * n * codec.BytesPerPixel)
	r.cur = newRefMACH(cfg.EntriesPerMACH, cfg.Ways)
	co := newRefMACH(cfg.CoMachEntries, cfg.CoMachWays)
	var recs []framebuf.MabRecord
	var contentOff uint64
	for y0 := 0; y0 < fr.H; y0 += n {
		for x0 := 0; x0 < fr.W; x0 += n {
			digest, aux := r.hash(fr, x0, y0)
			key := uint64(digest)
			// differs reports (and counts) a same-digest entry whose aux
			// hash shows it holds other content.
			differs := func(e *refEntry) bool {
				if cfg.CoMach && e.aux != aux {
					r.stats.DetectedCollisions++
					return true
				}
				return false
			}
			var rec framebuf.MabRecord
			var from *refEntry // the matched entry; nil for no match
			inter, aged := false, false
			if e := r.cur.m[key]; e != nil && !differs(e) {
				from = r.cur.hit(key)
			} else {
				for _, h := range r.hist {
					if e := h.m[key]; e != nil && !differs(e) {
						if di-e.origin >= cfg.NumMACHs {
							r.stats.AgedOut++ // content too old to point at: store it again
							aged = true
						} else {
							from, inter = e, true
						}
						break
					}
				}
				if from == nil && !aged && cfg.CoMach {
					if e := co.hit(key<<16 | uint64(aux)); e != nil {
						r.stats.CoMachHits++
						from = e
					}
				}
			}
			store := func(ptr uint64, origin int) {
				e := refEntry{aux: aux, ptr: ptr, origin: origin}
				if o := r.cur.m[key]; cfg.CoMach && o != nil && o.aux != aux {
					co.put(key<<16|uint64(aux), digest, e)
				} else {
					r.cur.put(key, digest, e)
				}
			}
			switch {
			case from == nil:
				rec = framebuf.MabRecord{Kind: framebuf.RecFull, Ptr: bufferBase + contentOff}
				r.stats.NoMatches++
				r.stats.ContentBytes += mabBytes
				store(rec.Ptr, di)
				contentOff += mabBytes
			case inter:
				rec = framebuf.MabRecord{Kind: framebuf.RecPointer, Ptr: from.ptr}
				if cfg.Layout == framebuf.LayoutPtrDigest {
					rec = framebuf.MabRecord{Kind: framebuf.RecDigest, Digest: digest}
				}
				r.stats.InterMatches++
				store(from.ptr, from.origin)
			default:
				rec = framebuf.MabRecord{Kind: framebuf.RecPointer, Ptr: from.ptr}
				r.stats.IntraMatches++
			}
			r.stats.Mabs++
			r.stats.MetaBytes += 4 // pointer or digest
			if cfg.Gradient {
				r.stats.MetaBytes += 3 // base pixel
			}
			recs = append(recs, rec)
		}
	}
	if cfg.Layout == framebuf.LayoutPtrDigest {
		r.stats.MetaBytes += uint64(len(recs)+7) / 8 // pointer/digest bitmap
		r.stats.DumpBytes += uint64(len(r.cur.m)) * 8
		// A digest record points where this frame's own MACH, as it
		// freezes, holds its digest, or at the buffer base once evicted.
		for i := range recs {
			if recs[i].Kind == framebuf.RecDigest {
				recs[i].Ptr = bufferBase
				if e := r.cur.m[uint64(recs[i].Digest)]; e != nil {
					recs[i].Ptr = e.ptr
				}
			}
		}
	}
	r.hist = append([]*refMACH{r.cur}, r.hist...)
	r.hist = r.hist[:min(len(r.hist), cfg.NumMACHs)]
	return recs
}

// refInput is a frame sequence in decode order, with display indexes, as
// the trace its digest tables hang off.
type refInput struct {
	name string
	tr   *trace.Trace
}

// clipTrace wraps a clip, displayed in decode order, as a trace.
func clipTrace(frames []*codec.Frame, mabSize int) *trace.Trace {
	tr := &trace.Trace{Params: codec.Params{Width: frames[0].W, Height: frames[0].H, MabSize: mabSize}}
	for i, fr := range frames {
		tr.Frames = append(tr.Frames, trace.Frame{DisplayIndex: i, Decoded: fr})
	}
	return tr
}

// refInputs returns fresh inputs, so every table starts cold: two noise
// clips and three profiles whose content MACH sees in the paper's
// evaluation. V7's B frames decode out of display order.
func refInputs(t *testing.T) []refInput {
	t.Helper()
	ins := []refInput{
		{"clip77", clipTrace(frameSequence(160, 96, 8, 77), 4)},
		{"clip19", clipTrace(frameSequence(48, 24, 8, 19), 4)},
	}
	for _, key := range []string{"V2", "V7", "V13"} {
		prof, err := video.ProfileByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		st, err := video.Synthesize(prof, video.StreamConfig{Width: 160, Height: 96, NumFrames: 16, Seed: 3, MabSize: 4, Quant: 8})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := trace.Build(key, prof.FPS, st.Params, st.Encoded)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, refInput{key, tr})
	}
	return ins
}

// refCase is one engine configuration the reference tests run.
type refCase struct {
	name   string
	cfg    Config
	shifts []int // quant shift of frame i is shifts[i%len(shifts)]
}

func withConfig(f func(*Config)) Config { c := DefaultConfig(); f(&c); return c }

// referenceCases are the configurations the naive model can check: LRU
// replacement, with and without gab mode, CO-MACH, pointer aging and quant
// shifts, under both MACH layouts.
func referenceCases() []refCase {
	return []refCase{
		{"gab", DefaultConfig(), []int{0}},
		{"mab", withConfig(func(c *Config) { c.Gradient = false }), []int{0}},
		{"gab-comach", withConfig(func(c *Config) { c.CoMach = true }), []int{0}},
		{"mab-comach", withConfig(func(c *Config) { c.Gradient = false; c.CoMach = true }), []int{0}},
		{"gab-md5", withConfig(func(c *Config) { c.Digest = hashes.MD5 }), []int{0}},
		{"gab-ptr", withConfig(func(c *Config) { c.Layout = framebuf.LayoutPtr }), []int{0}},
		{"gab-aging", withConfig(func(c *Config) { c.NumMACHs = 2 }), []int{0}},
		{"gab-shift2", DefaultConfig(), []int{2}},
		{"mab-shifts", withConfig(func(c *Config) { c.Gradient = false }), []int{0, 1, 2, 3, 4}},
		{"gab-comach-shifts", withConfig(func(c *Config) { c.CoMach = true }), []int{4, 3, 2, 1, 0}},
	}
}

// TestWritebackMatchesReference runs the production engine beside the
// naive model over every input and configuration, three ways: hashing
// each frame itself, filling a cold digest table, and reading the warm one.
// Every mab's record (kind, pointer, digest) must agree, and so must the
// match counts and the content, metadata and dump bytes.
func TestWritebackMatchesReference(t *testing.T) {
	var aged int64
	for _, in := range refInputs(t) {
		for _, c := range referenceCases() {
			ref := &refWriteback{cfg: c.cfg}
			var want [][]framebuf.MabRecord
			for i, f := range in.tr.Frames {
				ref.shift = c.shifts[i%len(c.shifts)]
				want = append(want, ref.frame(f.Decoded, f.DisplayIndex, frameBase(i)))
			}
			aged += ref.stats.AgedOut
			for _, mode := range []string{"self-hashed", "cold table", "warm table"} {
				wb, err := NewWriteback(c.cfg)
				if err != nil {
					t.Fatal(err)
				}
				if mode != "self-hashed" {
					for _, s := range c.shifts {
						wb.ShareDigests(in.tr, s)
					}
				}
				name := fmt.Sprintf("%s/%s/%s", in.name, c.name, mode)
				for i, f := range in.tr.Frames {
					wb.SetQuantShift(c.shifts[i%len(c.shifts)])
					l := wb.ProcessFrame(f.Decoded, f.DisplayIndex, frameBase(i), framebuf.RegionMachDumps, nil)
					if d := firstRecordDiff(want[i], l.Records); d != "" {
						t.Fatalf("%s: frame %d (display %d): %s", name, i, f.DisplayIndex, d)
					}
				}
				if got := countsOf(wb.Stats()); got != countsOf(ref.stats) {
					t.Fatalf("%s: stats %+v, reference %+v", name, got, countsOf(ref.stats))
				}
			}
		}
	}
	if aged == 0 {
		t.Error("no input aged a pointer out: the aging case proves nothing")
	}
}

func frameBase(i int) uint64 { return framebuf.RegionFrameBuffers + uint64(i%8)<<22 }

// refCounts is the part of Stats the reference model computes.
type refCounts struct {
	Mabs, Intra, Inter, None, CoMachHits, AgedOut, Collisions int64
	Content, Meta, Dump                                       uint64
}

func countsOf(s Stats) refCounts {
	return refCounts{s.Mabs, s.IntraMatches, s.InterMatches, s.NoMatches, s.CoMachHits, s.AgedOut,
		s.DetectedCollisions, s.ContentBytes, s.MetaBytes, s.DumpBytes}
}

func firstRecordDiff(want, got []framebuf.MabRecord) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d records, reference has %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Sprintf("mab %d is %v %#x/%#x, reference says %v %#x/%#x", i,
				got[i].Kind, got[i].Ptr, got[i].Digest, want[i].Kind, want[i].Ptr, want[i].Digest)
		}
	}
	return ""
}
