package mach

import (
	"crypto/md5"
	"fmt"
	"time"

	"mach/internal/codec"
	"mach/internal/framebuf"
	"mach/internal/hashes"
	"mach/internal/trace"
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
	held    heldSet        // which digests history may hold; rebuilt whenever history changes
	co      *coMach        // reset empty at the top of every ProcessFrame (§6.3); no cross-frame state

	stats  Stats
	shadow map[uint64][16]byte // ptr -> content fingerprint (TrackCollisions)

	mabBuf []byte
	gabBuf []byte
	// curMab is the ordinal of the mab currently being processed; it is
	// reset when ProcessFrame begins and dead between frames.
	curMab int

	// quantShift is the ABR quality response: how many low bits each
	// decoded sample drops before hashing. Lower bitrate rungs carry
	// coarser quantization, so their content is blurrier and more
	// repetitive — match rates rise as quality falls. Set per rung switch
	// by the pipeline; persists across frames.
	quantShift int

	// Shared digest tables, indexed by quant shift, installed by
	// ShareDigests; a nil entry means the engine hashes frames itself into
	// pre. fill hashes fillFrame into a table frame on first touch; it is
	// built once by ShareDigests, so reading a table allocates nothing, and
	// fillFrame is set just before the table is read. A table is a memo of
	// a pure function of the trace's pixels, so an engine reads the same
	// digests whether it fills a table or finds it filled.
	tables    [8]*trace.DigestTable
	fill      func(digest []uint32, aux []uint16)
	fillFrame *codec.Frame
	// pre holds a self-hashing engine's per-frame prehash results.
	pre prehash

	// coalescing buffer fill levels and flush cursors, zeroed at the top of
	// every ProcessFrame
	contentFill, ptrFill, baseFill int

	// Recycled per-frame objects: the retired FrameLayouts the pipeline
	// hands back (Recycle), reused by the next ProcessFrame, and the digest
	// caches aged out of the frozen history, reset and reused as the next
	// current MACH. Both lists are scratch: a new engine simply starts
	// with empty free lists and re-amortizes.
	freeLayouts []*framebuf.FrameLayout
	freeCaches  []*digestCache

	// prehashWall accumulates host wall time spent in the prehash phase.
	// It is measurement plumbing for the repository benchmark — never
	// simulation state: it does not feed any simulated quantity, is
	// excluded from Stats, and merely reading the host clock cannot
	// perturb the virtual timeline.
	prehashWall time.Duration
}

// PrehashWall returns the accumulated host wall time of the prehash phase:
// hashing frames, or reading them from a shared digest table. It is read by
// the repository benchmark as `mach.prehash_ms` (see benchmark/README.md).
func (w *Writeback) PrehashWall() time.Duration { return w.prehashWall }

// Recycle hands a retired frame layout back to the engine for reuse. The
// caller must guarantee nothing references the layout anymore: the pipeline
// calls it only for layouts older than the MACH retention window, after the
// decoder has retired them.
func (w *Writeback) Recycle(l *framebuf.FrameLayout) {
	if l == nil {
		return
	}
	w.freeLayouts = append(w.freeLayouts, l)
}

// prehash holds the per-mab values that are pure functions of the decoded
// frame: the 32-bit digest, the CO-MACH aux hash and (with TrackCollisions)
// the md5 content fingerprint. Purity is what lets sessions share the
// digests through a trace's digest table.
type prehash struct {
	digest []uint32
	aux    []uint16
	fp     [][16]byte
}

func (p *prehash) resize(n int, wantAux, wantFP bool) {
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
	if cfg.Layout != framebuf.LayoutRaw {
		w.held = newHeldSet(cfg.NumMACHs * cfg.EntriesPerMACH)
	}
	return w, nil
}

// Config returns the engine configuration.
func (w *Writeback) Config() Config { return w.cfg }

// ShareDigests makes ProcessFrame read each frame's digests at quant shift
// shift from tr's digest table instead of hashing them; every frame it is
// handed at that shift must then be the frame of tr with that display
// index. The first engine to reach a frame hashes it into the table, and
// every later one reads it. Call it for every shift the engine can be set
// to: the table is reserved now, so ProcessFrame allocates nothing. It is a
// no-op for the raw layout, which hashes nothing, and with TrackCollisions,
// whose md5 shadow stays per session. The engine's mab size must be tr's.
func (w *Writeback) ShareDigests(tr *trace.Trace, shift int) {
	if w.cfg.Layout == framebuf.LayoutRaw || w.shadow != nil || w.tables[shift] != nil {
		return
	}
	if tr.Params.MabSize != w.cfg.MabSize {
		panic(fmt.Sprintf("mach: %d-pixel mabs cannot share a trace of %d-pixel mabs", w.cfg.MabSize, tr.Params.MabSize))
	}
	w.tables[shift] = tr.Digests(trace.Variant{Gradient: w.cfg.Gradient, Digest: w.cfg.Digest, CoMach: w.cfg.CoMach, QuantShift: shift})
	w.fill = func(digest []uint32, aux []uint16) { w.hashFrame(w.fillFrame, digest, aux, nil) }
}

// prehashFrame hashes one frame into the engine's own prehash slots.
func (w *Writeback) prehashFrame(fr *codec.Frame, numMabs int) {
	w.pre.resize(numMabs, w.cfg.CoMach, w.shadow != nil)
	w.hashFrame(fr, w.pre.digest, w.pre.aux, w.pre.fp)
}

// hashFrame fills one slot per mab of fr, in raster order: the digest, the
// CO-MACH aux hash when the engine runs CO-MACH, and the md5 content
// fingerprint when fp is non-nil. Every value is a pure function of the
// frame's pixels, the engine's config and its current quant shift.
func (w *Writeback) hashFrame(fr *codec.Frame, digest []uint32, aux []uint16, fp [][16]byte) {
	cfg := w.cfg
	n := cfg.MabSize
	mabsPerRow := fr.MabsPerRow(n)
	mab, gab := w.mabBuf, w.gabBuf
	var base [3]byte
	for ord := range digest {
		fr.CopyBlock((ord%mabsPerRow)*n, (ord/mabsPerRow)*n, n, mab)
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
			ComputeGab(mab, &base, gab)
			content = gab
		}
		digest[ord] = hashes.Digest32(cfg.Digest, content)
		if cfg.CoMach {
			aux[ord] = hashes.CRC16CCITT(content)
		}
		if fp != nil {
			fp[ord] = md5.Sum(content)
		}
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
		// Pool warm-up: layouts allocate until the pipeline's retire loop
		// starts feeding Recycle; steady-state frames reuse retired layouts.
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
		// History warm-up: a fresh MACH is built until NumMACHs frames have
		// aged caches into the free list; steady-state frames reset a
		// recycled one.
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
	// frame content (digest, aux, shadow fingerprint), read from the shared
	// digest table when one is installed for the current quant shift.
	// The host clock is benchmark instrumentation: the measured duration
	// feeds only the PrehashWall accumulator the repository benchmark
	// reads, never any simulated quantity.
	prehashStart := time.Now()
	var digests []uint32
	var auxes []uint16
	var fps [][16]byte
	if tbl := w.tables[w.quantShift]; tbl != nil {
		w.fillFrame = fr
		digests, auxes = tbl.Frame(displayIndex, w.fill)
	} else {
		w.prehashFrame(fr, numMabs)
		digests, auxes, fps = w.pre.digest, w.pre.aux, w.pre.fp
	}
	w.prehashWall += time.Since(prehashStart)

	// Phase 2 — classification: an order-preserving serial reduction. MACH
	// lookups mutate LRU state, the coalescing buffers carry fill across
	// mabs, and the sink paces DRAM writes — all order-dependent, so this
	// loop consumes the prehashed slots strictly in mab order.
	w.curMab = 0
	for ord := 0; ord < numMabs; ord++ {
		w.stats.Mabs++
		digest := digests[ord]
		var aux uint16
		if cfg.CoMach {
			aux = auxes[ord]
		}
		var fp [16]byte
		if w.shadow != nil {
			fp = fps[ord]
		}

		ptr, origin, kind := w.match(digest, aux, displayIndex)
		var rec framebuf.MabRecord

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

	// Freeze this frame's MACH: dump it for the display (layout iii),
	// resolve the digest records against it, and push it onto the history
	// searched by subsequent frames.
	layout.Dump = w.current.dumpInto(layout.Dump[:0])
	if cfg.Layout == framebuf.LayoutPtrDigest {
		w.resolveDigests(layout)
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
		w.held.rebuild(w.history)
	} else {
		w.freeCaches = append(w.freeCaches, w.current)
	}
	w.current = nil
	return layout
}

// resolveDigests sets the Ptr of every digest record in l to the pointer the
// frame's own MACH, frozen a moment ago, holds for the record's digest: the
// content the decoder fetches for a reference and the display fetches when
// its MACH buffer misses. A digest evicted from this frame's MACH before the
// freeze is in no dump the layout carries, and falls back to the buffer
// base, a timing error of one line's worth of locality. A MACH never holds
// one digest twice (an insert follows a miss in the current MACH, and a
// CO-MACH collision goes to CO-MACH), so the probe finds what a walk of the
// dump would; it leaves the frozen MACH's replacement state untouched.
func (w *Writeback) resolveDigests(l *framebuf.FrameLayout) {
	for i := range l.Records {
		rec := &l.Records[i]
		if rec.Kind != framebuf.RecDigest {
			continue
		}
		ptr, ok := w.current.peek(rec.Digest)
		if !ok {
			ptr = l.BufferBase
		}
		rec.Ptr = ptr
	}
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
//
// The history walk runs only when the held-digest summary says some frozen
// MACH may hold the digest. Skipping it is exact: a hit, an aged-out
// rejection and a detected collision all need an entry with an equal
// digest, which a clear bit rules out, and a lookup that misses changes
// nothing.
func (w *Writeback) match(digest uint32, aux uint16, displayIndex int) (uint64, int, matchKind) {
	useAux := w.cfg.CoMach
	if ptr, origin, hit, coll := w.current.lookup(digest, aux, useAux); hit {
		return ptr, origin, matchIntra
	} else if coll {
		w.stats.DetectedCollisions++
	}
	if w.held.mayHold(digest) {
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
