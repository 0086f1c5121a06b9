// Package decoder models the hardware video decoder IP: a mab-granularity
// pipeline (entropy decode, inverse transform, prediction, reconstruction)
// with an internal decode cache for reference fetches, DVFS between a low
// and a high frequency point (§3.2 Racing), and a writeback stage that is
// either the baseline raw stream or the MACH content-cache engine (§4).
//
// The model is transaction-level: it converts the per-mab work records of a
// decode trace into cycles, issues the frame's memory traffic into the DRAM
// model at paced virtual times, and reports per-frame decode latency and
// active energy. Reference-block reads block the pipeline (their latency is
// decode stall time); bitstream reads and writebacks are posted.
package decoder

import (
	"fmt"
	"math/bits"

	"mach/internal/cache"
	"mach/internal/codec"
	"mach/internal/dram"
	"mach/internal/energy"
	"mach/internal/framebuf"
	"mach/internal/power"
	"mach/internal/sim"
)

// Config describes the decoder IP.
type Config struct {
	FreqLow   sim.Hertz // baseline DVFS point (paper: 150 MHz, 0.30 W)
	FreqHigh  sim.Hertz // racing DVFS point (paper: 300 MHz, 0.69 W)
	PowerLow  power.Watts
	PowerHigh power.Watts

	// Decode cache servicing reference-block and layout-metadata reads.
	CacheBytes int
	CacheWays  int
	LineBytes  int

	// Cycle-cost model per mab (calibrated so the baseline frame-time
	// distribution reproduces the paper's Regions I-IV; see EXPERIMENTS.md).
	CyclesPerMabBase sim.Cycles // fixed pipeline overhead per mab
	CyclesPerBit     float64    // entropy decoding, cycles per bit
	CyclesPerCoef    sim.Cycles // inverse transform per nonzero coefficient
	CyclesIntra      sim.Cycles // intra prediction
	CyclesMC         sim.Cycles // motion compensation per reference fetch

	// WritebackThroughCache routes frame writeback through the decode
	// cache (the Fig 7a experiment showing streaming writes do not cache).
	WritebackThroughCache bool
}

// DefaultConfig returns the Table 2 decoder: 150/300 MHz at 0.30/0.69 W with
// a 32KB 4-way decode cache.
func DefaultConfig() Config {
	return Config{
		FreqLow:          150 * sim.MHz,
		FreqHigh:         300 * sim.MHz,
		PowerLow:         0.30,
		PowerHigh:        0.69,
		CacheBytes:       32 * 1024,
		CacheWays:        4,
		LineBytes:        64,
		CyclesPerMabBase: 126,
		CyclesPerBit:     1.15,
		CyclesPerCoef:    6,
		CyclesIntra:      82,
		CyclesMC:         66,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.FreqLow <= 0 || c.FreqHigh < c.FreqLow:
		return fmt.Errorf("decoder: want 0 < low <= high frequency, got %v/%v", c.FreqLow, c.FreqHigh)
	case c.PowerLow <= 0 || c.PowerHigh < c.PowerLow:
		return fmt.Errorf("decoder: want 0 < low <= high power, got %g/%g", c.PowerLow, c.PowerHigh)
	case c.CacheBytes <= 0 || c.CacheWays <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("decoder: bad cache shape")
	case c.CyclesPerMabBase < 0 || c.CyclesPerBit < 0 || c.CyclesPerCoef < 0 || c.CyclesIntra < 0 || c.CyclesMC < 0:
		return fmt.Errorf("decoder: negative cycle costs")
	}
	return nil
}

// Freq returns the operating frequency for the racing flag.
func (c Config) Freq(race bool) sim.Hertz {
	if race {
		return c.FreqHigh
	}
	return c.FreqLow
}

// Power returns the active power for the racing flag.
func (c Config) Power(race bool) power.Watts {
	if race {
		return c.PowerHigh
	}
	return c.PowerLow
}

// Stats aggregates decoder behaviour across frames.
type Stats struct {
	Frames        int64
	Mabs          int64
	ComputeCycles sim.Cycles
	StallTime     sim.Time
	BusyTime      sim.Time
	ActiveEnergy  energy.Joules // at the P-state power

	RefReads  int64 // reference-block line reads requested
	RefHits   int64 // served by the decode cache
	MetaReads int64 // layout-metadata line reads for references
	BitReads  int64 // bitstream line reads (posted)
	WriteLns  int64 // writeback line writes (posted)

	// Writeback-through-cache counters (the Fig 7a experiment).
	WbCacheAccesses int64
	WbCacheHits     int64
}

// WbHitRate returns the decode-cache hit rate on the writeback path when
// WritebackThroughCache is enabled.
func (s Stats) WbHitRate() float64 {
	if s.WbCacheAccesses == 0 {
		return 0
	}
	return float64(s.WbCacheHits) / float64(s.WbCacheAccesses)
}

// RefHitRate returns the decode-cache hit rate on the reference path.
func (s Stats) RefHitRate() float64 {
	if s.RefReads == 0 {
		return 0
	}
	return float64(s.RefHits) / float64(s.RefReads)
}

// FrameResult reports one frame's decode.
type FrameResult struct {
	Start, Done  sim.Time
	BusyTime     sim.Time
	StallTime    sim.Time
	ActiveEnergy energy.Joules
	LineWrites   int64
}

// pendingWrite is one writeback line queued during a frame's decode, drained
// onto the DRAM timeline after the mab retirement times are known.
type pendingWrite struct {
	addr uint64
	size int
	ord  int
}

// IP is the decoder instance. It holds the memory layouts of its two anchor
// frames so motion compensation can resolve reference addresses.
type IP struct {
	cfg   Config
	mem   *dram.Memory
	cache *cache.SetAssoc
	stats Stats

	// The anchor pair P and B frames predict from, following the codec's
	// reference rule: the two most recent non-B layouts, newest last. The
	// pipeline owns the layouts and retires them through RetireLayout.
	older, newer *framebuf.FrameLayout

	// Per-frame scratch, reused across DecodeFrame calls so the steady-state
	// decode loop allocates nothing. All of it is dead between frames:
	// mabDone is rewritten by every DecodeFrame, pending is reset by it, and
	// the two address lists by every refMabAddrs call.
	mabDone                     []sim.Time
	pending                     []pendingWrite
	metaScratch, contentScratch []uint64

	// Persistent hot-path closures, built once at construction so per-frame
	// calls do not capture fresh environments.
	sink    func(at sim.Time, addr uint64, size int)
	collect func(addr uint64, size int, mabOrdinal int)
}

// New builds a decoder IP against the given memory; it panics on invalid
// configuration.
func New(cfg Config, mem *dram.Memory) *IP {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	ip := &IP{
		cfg:   cfg,
		mem:   mem,
		cache: cache.NewSetAssoc(cfg.CacheBytes, cfg.LineBytes, cfg.CacheWays),
	}
	ip.sink = ip.writeLine
	ip.collect = func(addr uint64, size int, mabOrdinal int) {
		ip.pending = append(ip.pending, pendingWrite{addr, size, mabOrdinal})
	}
	return ip
}

// Config returns the IP configuration.
func (ip *IP) Config() Config { return ip.cfg }

// Stats returns accumulated counters.
func (ip *IP) Stats() Stats { return ip.stats }

// CacheStats exposes the decode cache counters (Fig 7a).
func (ip *IP) CacheStats() cache.Stats { return ip.cache.Stats() }

// RegisterLayout records a decoded frame's memory layout for use as a
// reference by later frames. The pipeline calls it right after writeback;
// only anchors (I and P frames) are kept.
func (ip *IP) RegisterLayout(l *framebuf.FrameLayout, frameType codec.FrameType) {
	if frameType != codec.FrameB {
		ip.older, ip.newer = ip.newer, l
	}
}

// RetireLayout tells the decoder the pipeline has retired the layout of
// displayIndex and may reuse it; an anchor that is retired is never read
// again.
func (ip *IP) RetireLayout(displayIndex int) {
	if ip.older != nil && ip.older.DisplayIndex == displayIndex {
		ip.older = nil
	}
	if ip.newer != nil && ip.newer.DisplayIndex == displayIndex {
		ip.newer = nil
	}
}

// cachedRead routes one line read through the decode cache; on a miss the
// DRAM access latency is returned (the pipeline stalls for it).
func (ip *IP) cachedRead(now sim.Time, addr uint64) sim.Time {
	if ip.cache.Access(addr, false).Hit {
		return 0
	}
	done := ip.mem.Access(now, addr, false)
	if done < now {
		return 0
	}
	return done - now
}

// refMabAddrs collects the line addresses the decoder touches to fetch the
// reference block for a mab at (mabX, mabY) displaced by mv: the layout
// metadata line(s) plus the content line(s) of every overlapped source mab.
// The mab size is a power of two (codec.Params.Validate), so the source mab
// of a pixel is its coordinate shifted right by mabShift; the arithmetic
// shift floors negative coordinates past the frame's top or left edge.
// The addresses land in ip.metaScratch/ip.contentScratch (reset here, valid
// until the next call), so the per-mab fetch path allocates nothing once the
// scratch has grown to the worst-case overlap.
func (ip *IP) refMabAddrs(l *framebuf.FrameLayout, mabX, mabY int, mv codec.MotionVector, mabShift uint, mabsPerRow, mabsPerCol int) (meta []uint64, content []uint64) {
	meta = ip.metaScratch[:0]
	content = ip.contentScratch[:0]
	mabSize := 1 << mabShift
	x0 := mabX<<mabShift + int(mv.DX)
	y0 := mabY<<mabShift + int(mv.DY)
	firstMX, lastMX := x0>>mabShift, (x0+mabSize-1)>>mabShift
	firstMY, lastMY := y0>>mabShift, (y0+mabSize-1)>>mabShift
	for my := firstMY; my <= lastMY; my++ {
		cy := clampInt(my, 0, mabsPerCol-1)
		for mx := firstMX; mx <= lastMX; mx++ {
			cx := clampInt(mx, 0, mabsPerRow-1)
			idx := cy*mabsPerRow + cx
			switch l.Kind {
			case framebuf.LayoutRaw:
				content = append(content, l.BufferBase+uint64(idx*l.MabBytes))
			default:
				// The VD resolves a digest record in its on-chip frozen
				// MACHs, with no memory access for the resolution itself,
				// but the content still comes from wherever the matched
				// copy lives: the record's Ptr, for every record kind.
				meta = append(meta, l.MetaBase+uint64(idx*4))
				content = append(content, l.Records[idx].Ptr)
			}
		}
	}
	ip.metaScratch, ip.contentScratch = meta, content
	return meta, content
}

// fetchRef performs the blocking reference-block fetch for one mab through
// the decode cache, returning the stall time added to the pipeline. It
// preserves the access order of the original slice-building path: all
// metadata lines first, then every content line in mab-walk order.
func (ip *IP) fetchRef(cur sim.Time, l *framebuf.FrameLayout, mabX, mabY int, mv codec.MotionVector, mabShift uint, mabsPerRow, mabsPerCol int) (stall sim.Time) {
	if l == nil {
		return 0
	}
	meta, content := ip.refMabAddrs(l, mabX, mabY, mv, mabShift, mabsPerRow, mabsPerCol)
	for _, a := range meta {
		ip.stats.MetaReads++
		stall += ip.cachedRead(cur, a)
	}
	mabSize := 1 << mabShift
	blockBytes := uint64(mabSize * mabSize * codec.BytesPerPixel)
	lineBytes := uint64(ip.cfg.LineBytes)
	for _, a := range content {
		first, last, n := cache.LineSpan(a, blockBytes, lineBytes)
		for ln := first; n > 0 && ln <= last; ln += lineBytes {
			ip.stats.RefReads++
			d := ip.cachedRead(cur, ln)
			if d == 0 {
				ip.stats.RefHits++
			}
			stall += d
		}
	}
	return stall
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// writeLine is the posted-write path: each line write lands in DRAM at the
// given virtual time, optionally routed through the decode cache. It is
// installed once as ip.sink so the per-frame drain loop needs no fresh
// closure.
func (ip *IP) writeLine(at sim.Time, addr uint64, size int) {
	ip.stats.WriteLns++
	if ip.cfg.WritebackThroughCache {
		ip.stats.WbCacheAccesses++
		res := ip.cache.Access(addr, true)
		if res.Hit {
			ip.stats.WbCacheHits++
			return
		}
		if res.Writeback {
			ip.mem.Access(at, res.WritebackAddr, true)
		}
	}
	ip.mem.Access(at, addr, true) // posted
}

// DecodeFrame runs the timing model for one frame starting at now.
//
//   - work: the trace's per-mab work records.
//   - race: operate at the high DVFS point.
//   - workScale: multiplies the per-mab cycle cost; 1 is the native stream,
//     lower values model the cheaper entropy/transform work of a reduced
//     ABR rung. The ==1 path is arithmetically untouched, so fixed-rung
//     runs are bit-identical to the pre-ABR decoder.
//   - encodedBase/encodedBytes: where the bitstream sits in memory.
//   - writeback: called per decoded mab region writeback via sink; the
//     pipeline passes the MACH engine's ProcessFrame through this hook so
//     write traffic is issued at decode-paced times.
func (ip *IP) DecodeFrame(
	now sim.Time,
	work *codec.FrameWork,
	race bool,
	workScale float64,
	encodedBase uint64,
	encodedBytes int,
	writeback func(sink func(addr uint64, size int, mabOrdinal int)) *framebuf.FrameLayout,
	mabsPerRow, mabsPerCol, mabSize int,
) (*framebuf.FrameLayout, FrameResult) {
	cfg := ip.cfg
	freq := cfg.Freq(race)
	if !(workScale > 0 && workScale <= 1) {
		panic(fmt.Sprintf("decoder: work scale %g outside (0,1]", workScale))
	}
	cur := now
	var stall sim.Time

	// Bitstream reads: posted, paced across the mab walk.
	bitLines := int64(0)
	if encodedBytes > 0 {
		bitLines = int64((encodedBytes + cfg.LineBytes - 1) / cfg.LineBytes)
	}
	bitCursor := encodedBase
	bitsPosted := int64(0)
	totalBits := work.TotalBits
	if totalBits == 0 {
		totalBits = 1
	}
	var bitsSeen int64

	backRef := ip.newer
	var fwdRef, bRef *framebuf.FrameLayout
	if work.Type == codec.FrameB {
		bRef, fwdRef = ip.older, ip.newer
	}

	var cycles sim.Cycles
	if cap(ip.mabDone) < len(work.Mabs)+1 {
		ip.mabDone = make([]sim.Time, len(work.Mabs)+1)
	}
	// Queued writeback lines: worst case every content line lands
	// uncoalesced (mabBytes/LineBytes lines plus a misalignment line per
	// mab), plus metadata — pointer bitmap, base table, and MACH dump
	// lines. Reserving the bound up front means the collect append never
	// grows mid-run, however the content of a late frame coalesces.
	mabBytes := mabSize * mabSize * codec.BytesPerPixel
	if worst := len(work.Mabs)*(mabBytes/cfg.LineBytes+2) + 512; cap(ip.pending) < worst {
		ip.pending = make([]pendingWrite, 0, worst)
	}
	mabDone := ip.mabDone[:len(work.Mabs)+1]
	mabDone[0] = 0
	mabShift := uint(bits.TrailingZeros(uint(mabSize)))
	mabX, mabY := 0, 0 // raster position of mab i
	for i := range work.Mabs {
		mw := &work.Mabs[i]
		ip.stats.Mabs++

		c := cfg.CyclesPerMabBase +
			sim.Cycles(cfg.CyclesPerBit*float64(mw.Bits)) +
			cfg.CyclesPerCoef*sim.Cycles(mw.Nonzero)
		switch mw.Type {
		case codec.MabI:
			c += cfg.CyclesIntra
		case codec.MabP:
			c += cfg.CyclesMC
		case codec.MabB:
			c += 2 * cfg.CyclesMC
		}
		// Exact sentinel: only the literal 1.0 skips the scaling multiply,
		// keeping the native-quality path arithmetically untouched (golden
		// bit-identity).
		if workScale != 1 {
			c = sim.Cycles(float64(c) * workScale)
		}
		cycles += c
		compute := freq.Cycles(cycles)
		cur = now + compute + stall

		// Post bitstream line reads proportionally to bits consumed.
		bitsSeen += int64(mw.Bits)
		for wantLines := bitsSeen * bitLines / totalBits; bitsPosted < wantLines; bitsPosted++ {
			ip.mem.Access(cur, bitCursor, false)
			bitCursor += uint64(cfg.LineBytes)
			ip.stats.BitReads++
		}

		// Blocking reference fetches through the decode cache.
		switch mw.Type {
		case codec.MabP:
			stall += ip.fetchRef(cur, backRef, mabX, mabY, mw.MV, mabShift, mabsPerRow, mabsPerCol)
		case codec.MabB:
			stall += ip.fetchRef(cur, bRef, mabX, mabY, mw.MVB, mabShift, mabsPerRow, mabsPerCol)
			stall += ip.fetchRef(cur, fwdRef, mabX, mabY, mw.MVF, mabShift, mabsPerRow, mabsPerCol)
		}
		mabDone[i+1] = compute + stall
		if mabX++; mabX == mabsPerRow {
			mabX, mabY = 0, mabY+1
		}
	}

	busy := freq.Cycles(cycles) + stall
	done := now + busy

	// Writeback runs overlapped with decode. Content lines drain at the
	// time the producing mab retired, so writes cluster where unique
	// content is produced and the gap structure follows real decode pace —
	// Racing halves every gap, which is what lets bursts reuse an open
	// DRAM row (Fig 5a). Metadata lines (pointers, bases, bitmap, dump)
	// drain from their coalescing buffers in bursts of 8 across the busy
	// window.
	ip.pending = ip.pending[:0]
	layout := writeback(ip.collect)
	pending := ip.pending
	if len(pending) > 0 {
		contentEnd := layout.BufferBase + uint64(len(layout.Records)*layout.MabBytes)
		sink := ip.sink
		metaCount := 0
		for _, pw := range pending {
			if pw.addr >= layout.BufferBase && pw.addr < contentEnd {
				ord := pw.ord
				if ord < 0 {
					ord = 0
				}
				if ord >= len(mabDone)-1 {
					ord = len(mabDone) - 2
				}
				sink(now+mabDone[ord+1], pw.addr, pw.size)
			} else {
				metaCount++
			}
		}
		i := 0
		for _, pw := range pending {
			if pw.addr >= layout.BufferBase && pw.addr < contentEnd {
				continue
			}
			at := now + sim.Time(int64(busy)*int64(i/8*8)/int64(metaCount))
			sink(at, pw.addr, pw.size)
			i++
		}
	}

	e := cfg.Power(race).Over(busy)
	ip.stats.Frames++
	ip.stats.ComputeCycles += cycles
	ip.stats.StallTime += stall
	ip.stats.BusyTime += busy
	ip.stats.ActiveEnergy += e

	return layout, FrameResult{
		Start:        now,
		Done:         done,
		BusyTime:     busy,
		StallTime:    stall,
		ActiveEnergy: e,
	}
}
