package mach

import (
	"crypto/md5"
	"fmt"
	"time"

	"mach/internal/codec"
	"mach/internal/framebuf"
	"mach/internal/hashes"
	"mach/internal/par"
)

// Config describes one MACH deployment at the video decoder.
type Config struct {
	// NumMACHs is how many frozen per-frame MACHs are searched in addition
	// to the current frame's MACH: a mab can match content up to NumMACHs
	// frames back (§4.4 picks 8; Fig 12a is the sensitivity sweep).
	NumMACHs int
	// EntriesPerMACH and Ways shape each MACH (paper: 256 entries, 4-way).
	EntriesPerMACH int
	Ways           int

	// Gradient selects gab mode (§4.3); false is plain mab mode.
	Gradient bool
	// Digest selects the hash (Fig 12d sweep; CRC32 by default).
	Digest hashes.Func

	// CoMach enables the collision MACH of §6.3 (CRC32+CRC16 deep digest).
	CoMach        bool
	CoMachEntries int
	CoMachWays    int

	// Policy selects the MACH replacement policy (LRU in the paper; §4.5
	// leaves smarter digest-residency policies to future work).
	Policy Replacement

	// MabSize is the block edge in pixels (Fig 12c sweep; 4 by default).
	MabSize int
	// Layout selects the frame-buffer layout produced: LayoutPtr (§4) or
	// LayoutPtrDigest (§5.1). LayoutRaw bypasses MACH entirely.
	Layout framebuf.LayoutKind
	// Coalesce enables the three 64-byte coalescing buffers of §4.4;
	// disabling it is the ablation where every small item costs a line.
	Coalesce  bool
	LineBytes int

	// TrackCollisions verifies matches against true content fingerprints
	// (measurement-only shadow state, Fig 12d).
	TrackCollisions bool
	// TrackPopularity counts matches per digest (Fig 9b).
	TrackPopularity bool
}

// DefaultConfig returns the paper's deployment: 8 MACHs x 256 entries x
// 4-way (8KB), gab mode, CRC32, display-optimized layout, coalescing on.
func DefaultConfig() Config {
	return Config{
		NumMACHs:       8,
		EntriesPerMACH: 256,
		Ways:           4,
		Gradient:       true,
		Digest:         hashes.CRC32,
		CoMach:         false,
		CoMachEntries:  128,
		CoMachWays:     4,
		MabSize:        4,
		Layout:         framebuf.LayoutPtrDigest,
		Coalesce:       true,
		LineBytes:      64,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.NumMACHs < 0 || c.NumMACHs > 64:
		return fmt.Errorf("mach: NumMACHs %d outside [0,64]", c.NumMACHs)
	case c.EntriesPerMACH <= 0 || c.Ways <= 0 || c.EntriesPerMACH%c.Ways != 0:
		return fmt.Errorf("mach: bad MACH shape %d/%d", c.EntriesPerMACH, c.Ways)
	case c.MabSize < 2 || c.MabSize > 16 || c.MabSize&(c.MabSize-1) != 0:
		return fmt.Errorf("mach: mab size %d", c.MabSize)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("mach: line bytes %d", c.LineBytes)
	case c.CoMach && (c.CoMachEntries <= 0 || c.CoMachWays <= 0 || c.CoMachEntries%c.CoMachWays != 0):
		return fmt.Errorf("mach: bad CO-MACH shape %d/%d", c.CoMachEntries, c.CoMachWays)
	}
	return nil
}

// MabBytes returns the decoded bytes per mab.
func (c Config) MabBytes() int { return c.MabSize * c.MabSize * codec.BytesPerPixel }

// MetaBytesPerMatch returns the metadata cost of a matched mab: 4-byte
// pointer/digest, plus the 3-byte base in gab mode (§4.3).
func (c Config) MetaBytesPerMatch() int {
	if c.Gradient {
		return 7
	}
	return 4
}

// SRAMBytes returns the MACH tag/value store size, for the Table 2-style
// overhead report. Each entry is a 4B digest + 4B pointer (+2B aux with
// CO-MACH).
func (c Config) SRAMBytes() int {
	per := 8
	if c.CoMach {
		per += 2
	}
	total := (c.NumMACHs + 1) * c.EntriesPerMACH * per
	if c.CoMach {
		total += c.CoMachEntries * 10
	}
	return total
}

// Stats aggregates writeback behaviour across processed frames.
type Stats struct {
	Mabs         int64
	IntraMatches int64
	InterMatches int64
	NoMatches    int64

	CoMachHits         int64
	AgedOut            int64 // inter matches rejected by pointer aging
	DetectedCollisions int64 // CRC32 collisions caught by the CRC16 aux
	FalseMatches       int64 // accepted matches with differing true content (TrackCollisions)

	ContentBytes uint64 // unique content written to memory
	MetaBytes    uint64 // pointers + digests + bases + bitmaps written
	DumpBytes    uint64 // frozen-MACH dumps written (layout iii)
	RawBytes     uint64 // what the baseline would have written

	LineWrites int64 // 64B write transactions issued

	// DigestMatches counts matches per digest when TrackPopularity is set.
	DigestMatches map[uint32]int64
}

// MatchRate returns (intra+inter)/mabs.
func (s Stats) MatchRate() float64 {
	if s.Mabs == 0 {
		return 0
	}
	return float64(s.IntraMatches+s.InterMatches) / float64(s.Mabs)
}

// BytesWritten returns all frame-buffer bytes written (content + metadata +
// dumps).
func (s Stats) BytesWritten() uint64 { return s.ContentBytes + s.MetaBytes + s.DumpBytes }

// Savings returns the fractional reduction in written bytes vs the baseline
// (Fig 9a's y-axis: positive is better; can be negative when metadata
// overhead exceeds dedup wins).
func (s Stats) Savings() float64 {
	if s.RawBytes == 0 {
		return 0
	}
	return 1 - float64(s.BytesWritten())/float64(s.RawBytes)
}

// WriteSink receives the line-granular memory writes the writeback engine
// issues; the decoder IP routes them into the DRAM model. addr is
// line-aligned. mabOrdinal is the index of the mab being processed when the
// line drained, which the decoder maps to its pipeline timeline: writes
// cluster where unique content is produced (noise, fresh detail) and go
// quiet across matched stretches.
type WriteSink func(addr uint64, size int, mabOrdinal int)

// Writeback is the per-video MACH engine at the video decoder's writeback
// stage. It is stateful across frames (frozen MACH history) and must be used
// for frames in decode order of a single video.
type Writeback struct {
	cfg     Config
	current *digestCache
	history []*digestCache // newest first
	co      *coMach        // reset empty at the top of every ProcessFrame (§6.3); no cross-frame state

	stats  Stats
	shadow map[uint64][16]byte // ptr -> content fingerprint (TrackCollisions)

	mabBuf []byte
	gabBuf []byte
	//lint:derived per-frame scan cursor, reset when ProcessFrame begins; dead between frames
	curMab int // ordinal of the mab currently being processed

	// quantShift is the ABR quality response: how many low bits each
	// decoded sample drops before hashing. Lower bitrate rungs carry
	// coarser quantization, so their content is blurrier and more
	// repetitive — match rates rise as quality falls. Set per rung switch
	// by the pipeline; persists across frames and is part of State.
	quantShift int

	// Parallel prehash state: pool shards the pure per-mab digest work,
	// scratch gives each worker its own block buffers, and pre collects
	// the per-mab results the serial classification phase consumes.
	//lint:derived execution configuration installed by SetPool, not simulation state; a restored engine runs sequentially until SetPool is called again
	pool *par.Pool
	//lint:derived worker scratch buffers sized by SetPool; contents are per-frame transients
	scratch []mabScratch
	//lint:derived per-frame prehash results, fully rewritten by the prehash phase before the classification phase reads them
	pre prehash

	// coalescing buffer fill levels and flush cursors
	//lint:derived per-frame flush cursors, zeroed at the top of every ProcessFrame
	contentFill, ptrFill, baseFill int

	// Recycled per-frame objects. Both lists are scratch, not State: a
	// restored engine simply starts with empty free lists and re-amortizes.
	//lint:derived retired FrameLayouts handed back by the pipeline (Recycle); reused by the next ProcessFrame
	freeLayouts []*framebuf.FrameLayout
	//lint:derived digest caches aged out of the frozen history; reset and reused as the next current MACH
	freeCaches []*digestCache

	// prehashWall accumulates host wall time spent in the prehash phase.
	// It is measurement plumbing for the repository benchmark — never
	// simulation state: it does not feed any simulated quantity, is
	// excluded from Stats and State, and merely reading the host clock
	// cannot perturb the virtual timeline.
	//lint:derived host-clock benchmark instrumentation, not simulation state; a restored engine restarts the accumulator at zero
	prehashWall time.Duration
}

// PrehashWall returns the accumulated host wall time of the prehash phase,
// the portion of the engine's work the pool shards. It is read by the
// repository benchmark as `mach.prehash_ms` (see benchmark/README.md).
func (w *Writeback) PrehashWall() time.Duration { return w.prehashWall }

// Recycle hands a retired frame layout back to the engine for reuse. The
// caller must guarantee nothing references the layout anymore: the pipeline
// calls it only for layouts older than the MACH retention window, after the
// decoder's reference table has dropped them.
func (w *Writeback) Recycle(l *framebuf.FrameLayout) {
	if l == nil {
		return
	}
	w.freeLayouts = append(w.freeLayouts, l)
}

// mabScratch is one worker's private block buffers.
type mabScratch struct {
	mab, gab []byte
}

// prehash holds the per-mab values that are pure functions of the decoded
// frame: the 32-bit digest, the CO-MACH aux hash, the gab base, and (with
// TrackCollisions) the md5 content fingerprint. Purity is what makes this
// phase safe to shard across workers: every slot is written exactly once,
// by the shard that owns its index, from frame content nobody mutates.
type prehash struct {
	digest []uint32
	aux    []uint16
	base   [][3]byte
	fp     [][16]byte
}

func (p *prehash) resize(n int, wantAux, wantBase, wantFP bool) {
	if cap(p.digest) < n {
		p.digest = make([]uint32, n)
	}
	p.digest = p.digest[:n]
	p.aux = p.aux[:0]
	if wantAux {
		if cap(p.aux) < n {
			p.aux = make([]uint16, n)
		}
		p.aux = p.aux[:n]
	}
	p.base = p.base[:0]
	if wantBase {
		if cap(p.base) < n {
			p.base = make([][3]byte, n)
		}
		p.base = p.base[:n]
	}
	p.fp = p.fp[:0]
	if wantFP {
		if cap(p.fp) < n {
			p.fp = make([][16]byte, n)
		}
		p.fp = p.fp[:n]
	}
}

// NewWriteback returns an engine for cfg, or an error for invalid configs.
func NewWriteback(cfg Config) (*Writeback, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &Writeback{
		cfg:    cfg,
		mabBuf: make([]byte, cfg.MabBytes()),
		gabBuf: make([]byte, cfg.MabBytes()),
	}
	if cfg.TrackCollisions {
		w.shadow = make(map[uint64][16]byte)
	}
	if cfg.TrackPopularity {
		w.stats.DigestMatches = make(map[uint32]int64)
	}
	if cfg.CoMach {
		w.co = newCoMach(cfg.CoMachEntries, cfg.CoMachWays)
	}
	return w, nil
}

// Config returns the engine configuration.
func (w *Writeback) Config() Config { return w.cfg }

// SetPool shards the pure per-mab prehash phase (block copy, gab transform,
// digest and aux hashing, shadow fingerprints) across the pool's workers.
// Classification, MACH state updates and write accounting stay serial and
// in mab order — an order-preserving reduction — so the engine's output is
// bit-identical to the sequential path; only wall clock changes. A nil pool
// (the default) keeps everything inline on the caller.
func (w *Writeback) SetPool(p *par.Pool) {
	w.pool = p
	w.scratch = nil
	if p.Workers() > 1 {
		w.scratch = make([]mabScratch, p.Workers())
		for i := range w.scratch {
			w.scratch[i] = mabScratch{
				mab: make([]byte, w.cfg.MabBytes()),
				gab: make([]byte, w.cfg.MabBytes()),
			}
		}
	}
}

// prehashGrain is the number of mabs per shard of the parallel prehash.
// Shard boundaries are a function of this constant and the frame geometry
// alone — never of the worker count — so every pool width computes the
// same values into the same slots (par.Shards documents the invariant).
const prehashGrain = 512

// prehashFrame computes the per-mab digest values for one frame. Each slot
// of w.pre is a pure function of the frame content, so the work shards
// freely; the caller consumes the slots strictly in mab order.
func (w *Writeback) prehashFrame(fr *codec.Frame, numMabs int) {
	cfg := w.cfg
	mabsPerRow := fr.MabsPerRow(cfg.MabSize)
	w.pre.resize(numMabs, cfg.CoMach, cfg.Gradient, w.shadow != nil)

	if w.pool.Workers() <= 1 {
		for ord := 0; ord < numMabs; ord++ {
			w.hashOne(fr, mabsPerRow, ord, w.mabBuf, w.gabBuf)
		}
		return
	}
	//lint:ignore allocheck the sharded path pays one closure plus the pool's goroutines per frame; the sequential engine, which the 0-allocs StepFrame test measures, takes the inline loop above
	w.pool.ForShards(numMabs, prehashGrain, func(lo, hi, worker int) {
		s := &w.scratch[worker]
		for ord := lo; ord < hi; ord++ {
			w.hashOne(fr, mabsPerRow, ord, s.mab, s.gab)
		}
	})
}

// hashOne fills mab ord's prehash slots: the digest, the CO-MACH aux hash,
// the gab base, and the optional content fingerprint. It is a pure function
// of the frame content writing only the ord-owned w.pre slots (plus the
// caller-owned block buffers), which is what lets prehashFrame shard it.
func (w *Writeback) hashOne(fr *codec.Frame, mabsPerRow, ord int, mab, gab []byte) {
	cfg := w.cfg
	n := cfg.MabSize
	x0 := (ord % mabsPerRow) * n
	y0 := (ord / mabsPerRow) * n
	fr.CopyBlock(x0, y0, n, mab)
	if shift := w.quantShift; shift > 0 {
		// Requantize to the rung's effective sample depth before any
		// hashing: matching happens on what the coarser encode would
		// have decoded, not on the full-quality synthesis.
		mask := byte(0xFF) << shift
		for i := range mab {
			mab[i] &= mask
		}
	}
	content := mab
	if cfg.Gradient {
		ComputeGab(mab, &w.pre.base[ord], gab)
		content = gab
	}
	w.pre.digest[ord] = hashes.Digest32(cfg.Digest, content)
	if cfg.CoMach {
		w.pre.aux[ord] = hashes.CRC16CCITT(content)
	}
	if w.shadow != nil {
		w.pre.fp[ord] = md5.Sum(content)
	}
}

// Stats returns the accumulated statistics.
func (w *Writeback) Stats() Stats { return w.stats }

// SetQuantShift sets the requantization depth applied before hashing —
// the MACH-side effect of an ABR rung switch. The pipeline calls it at
// batch boundaries; it must not be called mid-ProcessFrame. Shifts outside
// [0,7] are a caller bug.
func (w *Writeback) SetQuantShift(shift int) {
	if shift < 0 || shift > 7 {
		panic(fmt.Sprintf("mach: quant shift %d outside [0,7]", shift))
	}
	w.quantShift = shift
}

// QuantShift returns the current requantization depth.
func (w *Writeback) QuantShift() int { return w.quantShift }

// alignUp rounds v up to the next multiple of line.
func alignUp(v uint64, line int) uint64 {
	l := uint64(line)
	return (v + l - 1) &^ (l - 1)
}

// coalesce accounts size bytes flowing through one of the coalescing
// buffers, emitting full-line writes through sink. fill is the buffer's
// current occupancy; cursor is the next line-aligned address of the stream.
func (w *Writeback) coalesce(fill *int, cursor *uint64, size int, sink WriteSink) {
	if !w.cfg.Coalesce {
		// Every item becomes its own (padded) line transaction.
		w.stats.LineWrites++
		if sink != nil {
			sink(*cursor, w.cfg.LineBytes, w.curMab)
		}
		*cursor += uint64(w.cfg.LineBytes)
		return
	}
	*fill += size
	for *fill >= w.cfg.LineBytes {
		*fill -= w.cfg.LineBytes
		w.stats.LineWrites++
		if sink != nil {
			sink(*cursor, w.cfg.LineBytes, w.curMab)
		}
		*cursor += uint64(w.cfg.LineBytes)
	}
}

// flushPartial drains a coalescing buffer at frame end.
func (w *Writeback) flushPartial(fill *int, cursor *uint64, sink WriteSink) {
	if *fill > 0 {
		*fill = 0
		w.stats.LineWrites++
		if sink != nil {
			sink(*cursor, w.cfg.LineBytes, w.curMab)
		}
		*cursor += uint64(w.cfg.LineBytes)
	}
}

// ProcessFrame runs the MACH writeback for one decoded frame. bufferBase is
// the frame's buffer slot (content area first, metadata after); dumpBase is
// where the frozen-MACH dump will live. sink, when non-nil, receives every
// line write. The returned layout is what the display controller consumes.
//
//lint:hotpath the per-frame MACH writeback: prehash plus serial classification of every mab
func (w *Writeback) ProcessFrame(fr *codec.Frame, displayIndex int, bufferBase, dumpBase uint64, sink WriteSink) *framebuf.FrameLayout {
	cfg := w.cfg
	n := cfg.MabSize
	mabBytes := cfg.MabBytes()
	numMabs := fr.NumMabs(n)
	frameBytes := uint64(fr.SizeBytes())

	var layout *framebuf.FrameLayout
	if n := len(w.freeLayouts); n > 0 {
		layout = w.freeLayouts[n-1]
		w.freeLayouts[n-1] = nil
		w.freeLayouts = w.freeLayouts[:n-1]
		*layout = framebuf.FrameLayout{Records: layout.Records[:0], Dump: layout.Dump[:0]}
	} else {
		//lint:ignore allocheck pool warm-up: layouts allocate until the pipeline's retire loop starts feeding Recycle; steady-state frames reuse retired layouts
		layout = &framebuf.FrameLayout{Records: make([]framebuf.MabRecord, 0, numMabs)}
	}
	layout.Kind = cfg.Layout
	layout.DisplayIndex = displayIndex
	layout.MabBytes = mabBytes
	layout.Gradient = cfg.Gradient
	layout.BufferBase = bufferBase
	layout.MetaBase = alignUp(bufferBase+frameBytes, cfg.LineBytes)
	layout.DumpBase = dumpBase
	w.stats.RawBytes += frameBytes

	if cfg.Layout == framebuf.LayoutRaw {
		// Baseline path: the full frame streams out sequentially.
		w.processRaw(fr, layout, sink)
		return layout
	}

	if n := len(w.freeCaches); n > 0 {
		w.current = w.freeCaches[n-1]
		w.freeCaches[n-1] = nil
		w.freeCaches = w.freeCaches[:n-1]
		w.current.reset()
	} else {
		//lint:ignore allocheck history warm-up: a fresh MACH is built until NumMACHs frames have aged caches into the free list; steady-state frames reset a recycled one
		w.current = newDigestCachePolicy(cfg.EntriesPerMACH, cfg.Ways, cfg.Policy)
	}
	if cfg.CoMach {
		w.co.cache.reset() // rebuilt empty per frame (§6.3)
	}

	contentCursor := bufferBase
	ptrCursor := layout.MetaBase
	// Bases stream after the pointer array within the metadata area.
	baseCursor := alignUp(layout.MetaBase+uint64(numMabs*4), cfg.LineBytes)
	w.contentFill, w.ptrFill, w.baseFill = 0, 0, 0
	var contentOff uint64

	// Phase 1 — prehash: every per-mab value that is a pure function of the
	// frame content (digest, aux, gab base, shadow fingerprint). This is
	// the only phase a pool shards; with no pool it runs inline, through
	// the same code, so the two engines cannot diverge.
	//lint:ignore determinism host-clock benchmark instrumentation: the measured duration feeds only the PrehashWall accumulator the repository benchmark reads, never any simulated quantity
	prehashStart := time.Now()
	w.prehashFrame(fr, numMabs)
	w.prehashWall += time.Since(prehashStart)

	// Phase 2 — classification: an order-preserving serial reduction. MACH
	// lookups mutate LRU state, the coalescing buffers carry fill across
	// mabs, and the sink paces DRAM writes — all order-dependent, so this
	// loop consumes the prehashed slots strictly in mab order.
	w.curMab = 0
	for ord := 0; ord < numMabs; ord++ {
		w.stats.Mabs++
		digest := w.pre.digest[ord]
		var aux uint16
		if cfg.CoMach {
			aux = w.pre.aux[ord]
		}
		var fp [16]byte
		if w.shadow != nil {
			fp = w.pre.fp[ord]
		}

		ptr, origin, kind := w.match(digest, aux, displayIndex)
		var rec framebuf.MabRecord
		if cfg.Gradient {
			rec.Base = w.pre.base[ord]
		}

		switch kind {
		case matchNone:
			addr := bufferBase + contentOff
			contentOff += uint64(mabBytes)
			rec.Kind = framebuf.RecFull
			rec.Ptr = addr
			w.stats.NoMatches++
			w.stats.ContentBytes += uint64(mabBytes)
			w.coalesce(&w.contentFill, &contentCursor, mabBytes, sink)
			w.writeMeta(layout, &ptrCursor, &baseCursor, 4, sink)
			w.insert(digest, aux, addr, displayIndex, fp)
		case matchIntra:
			rec.Kind = framebuf.RecPointer
			rec.Ptr = ptr
			w.stats.IntraMatches++
			w.notePopularity(digest)
			w.noteFalseMatch(ptr, fp)
			w.writeMeta(layout, &ptrCursor, &baseCursor, 4, sink)
		case matchInter:
			w.stats.InterMatches++
			w.notePopularity(digest)
			w.noteFalseMatch(ptr, fp)
			if cfg.Layout == framebuf.LayoutPtrDigest {
				rec.Kind = framebuf.RecDigest
				rec.Digest = digest
			} else {
				rec.Kind = framebuf.RecPointer
				rec.Ptr = ptr
			}
			w.writeMeta(layout, &ptrCursor, &baseCursor, 4, sink)
			// The digest joins this frame's MACH (it is part of the
			// frame's unique-content vocabulary), keeping the old
			// pointer: later mabs of this frame match it as intra.
			w.insert(digest, aux, ptr, origin, fp)
		}
		layout.Records = append(layout.Records, rec)
		w.curMab++
	}

	// Bitmap distinguishing pointer vs digest records (§5.1), layout iii.
	if cfg.Layout == framebuf.LayoutPtrDigest {
		bitmapBytes := (numMabs + 7) / 8
		layout.MetaBytes += uint64(bitmapBytes)
		w.stats.MetaBytes += uint64(bitmapBytes)
		w.coalesce(&w.ptrFill, &ptrCursor, bitmapBytes, sink)
	}

	w.flushPartial(&w.contentFill, &contentCursor, sink)
	w.flushPartial(&w.ptrFill, &ptrCursor, sink)
	if cfg.Gradient {
		w.flushPartial(&w.baseFill, &baseCursor, sink)
	}

	layout.ContentBytes = contentOff

	// Freeze this frame's MACH: dump it for the display (layout iii) and
	// push it onto the history searched by subsequent frames.
	layout.Dump = w.current.dumpInto(layout.Dump[:0])
	if cfg.Layout == framebuf.LayoutPtrDigest {
		dumpBytes := uint64(len(layout.Dump) * 8)
		w.stats.DumpBytes += dumpBytes
		for off := uint64(0); off < dumpBytes; off += uint64(cfg.LineBytes) {
			w.stats.LineWrites++
			if sink != nil {
				sink(dumpBase+off, cfg.LineBytes, numMabs-1)
			}
		}
	}
	if cfg.NumMACHs > 0 {
		// Shift the history in place (newest first): grow until the window
		// is full, then age the oldest MACH into the free list for reuse.
		if len(w.history) < cfg.NumMACHs {
			w.history = append(w.history, nil)
		} else {
			w.freeCaches = append(w.freeCaches, w.history[len(w.history)-1])
		}
		copy(w.history[1:], w.history)
		w.history[0] = w.current
	} else {
		w.freeCaches = append(w.freeCaches, w.current)
	}
	w.current = nil
	return layout
}

func (w *Writeback) processRaw(fr *codec.Frame, layout *framebuf.FrameLayout, sink WriteSink) {
	n := w.cfg.MabSize
	mabBytes := w.cfg.MabBytes()
	cursor := layout.BufferBase
	fill := 0
	var off uint64
	w.curMab = 0
	for y0 := 0; y0 < fr.H; y0 += n {
		for x0 := 0; x0 < fr.W; x0 += n {
			w.stats.Mabs++
			w.stats.NoMatches++
			layout.Records = append(layout.Records, framebuf.MabRecord{
				Kind: framebuf.RecFull,
				Ptr:  layout.BufferBase + off,
			})
			off += uint64(mabBytes)
			w.stats.ContentBytes += uint64(mabBytes)
			w.coalesce(&fill, &cursor, mabBytes, sink)
			w.curMab++
		}
	}
	w.flushPartial(&fill, &cursor, sink)
	layout.ContentBytes = off
}

// writeMeta accounts the per-mab metadata stream: a 4-byte pointer or digest
// plus, in gab mode, the 3-byte base.
func (w *Writeback) writeMeta(layout *framebuf.FrameLayout, ptrCursor, baseCursor *uint64, ptrBytes int, sink WriteSink) {
	layout.MetaBytes += uint64(ptrBytes)
	w.stats.MetaBytes += uint64(ptrBytes)
	w.coalesce(&w.ptrFill, ptrCursor, ptrBytes, sink)
	if w.cfg.Gradient {
		layout.MetaBytes += 3
		w.stats.MetaBytes += 3
		w.coalesce(&w.baseFill, baseCursor, 3, sink)
	}
}

type matchKind int

const (
	matchNone matchKind = iota
	matchIntra
	matchInter
)

// match searches the current MACH, the frozen history, and CO-MACH. The
// displayIndex is used for pointer aging: an inter match whose content
// originates more than NumMACHs-1 frames back is rejected and the content
// re-stored, which bounds how old a live frame-buffer reference can be and
// so bounds the display's buffer retention window (§5.1, Fig 12a).
func (w *Writeback) match(digest uint32, aux uint16, displayIndex int) (uint64, int, matchKind) {
	useAux := w.cfg.CoMach
	if ptr, origin, hit, coll := w.current.lookup(digest, aux, useAux); hit {
		return ptr, origin, matchIntra
	} else if coll {
		w.stats.DetectedCollisions++
	}
	for _, h := range w.history {
		if ptr, origin, hit, coll := h.lookup(digest, aux, useAux); hit {
			if displayIndex-origin >= w.cfg.NumMACHs {
				w.stats.AgedOut++
				return 0, 0, matchNone
			}
			return ptr, origin, matchInter
		} else if coll {
			w.stats.DetectedCollisions++
		}
	}
	if w.cfg.CoMach {
		if ptr, hit := w.co.lookup(digest, aux); hit {
			w.stats.CoMachHits++
			return ptr, displayIndex, matchIntra // CO-MACH holds the current frame's collided entries
		}
	}
	return 0, 0, matchNone
}

// insert places a content address into the current MACH, or into CO-MACH
// when the digest slot is occupied by different content (detected via the
// aux hash). fp is the mab's prehashed md5 fingerprint; it is only read
// when TrackCollisions enabled the shadow store.
func (w *Writeback) insert(digest uint32, aux uint16, addr uint64, origin int, fp [16]byte) {
	if w.cfg.CoMach {
		if _, _, _, coll := w.current.lookup(digest, aux, true); coll {
			w.co.insert(digest, aux, addr, origin)
			if w.shadow != nil {
				w.shadow[addr] = fp
			}
			return
		}
	}
	w.current.insert(digest, aux, addr, origin)
	if w.shadow != nil {
		w.shadow[addr] = fp
	}
}

func (w *Writeback) notePopularity(digest uint32) {
	if w.stats.DigestMatches != nil {
		w.stats.DigestMatches[digest]++
	}
}

func (w *Writeback) noteFalseMatch(ptr uint64, fp [16]byte) {
	if w.shadow == nil {
		return
	}
	if stored, ok := w.shadow[ptr]; ok && stored != fp {
		w.stats.FalseMatches++
	}
}
