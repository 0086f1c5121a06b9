// Package display models the display controller (DC): a 60 Hz scan-out
// engine that reads each decoded frame out of memory and, under MACH
// layouts, resolves pointer/digest indirection with the two hardware
// structures of §5.1:
//
//   - the display cache, a small direct-mapped cache over memory lines that
//     recovers the locality the pointer layout destroys (repeated pointers
//     to the same content, fragmented 48-byte fetches);
//   - the MACH buffer, a digest-indexed store prefetched from the frames'
//     frozen-MACH dumps, which serves inter-frame matches without any
//     memory access.
//
// Reads are posted into the DRAM model paced across the frame period, so
// display traffic interleaves with decoder traffic at the banks — the
// interference that makes slow decoding lose row-buffer locality (Fig 5a).
package display

import (
	"cmp"
	"fmt"
	"slices"

	"mach/internal/cache"
	"mach/internal/dram"
	"mach/internal/energy"
	"mach/internal/framebuf"
	"mach/internal/power"
	"mach/internal/sim"
)

// Config describes the display controller.
type Config struct {
	FPS       int
	Power     power.Watts // while scanning (Table 2: 0.12 W)
	LineBytes int

	UseDisplayCache   bool
	DisplayCacheBytes int // 16KB direct-mapped (Fig 10c)

	UseMachBuffer     bool
	MachBufferEntries int // 2K (Fig 12b)
	MachBufferWays    int
}

// DefaultConfig returns the Table 2 display: 60 Hz, 0.12 W, 16KB display
// cache, 2K-entry MACH buffer.
func DefaultConfig() Config {
	return Config{
		FPS:               60,
		Power:             0.12,
		LineBytes:         64,
		UseDisplayCache:   true,
		DisplayCacheBytes: 16 * 1024,
		UseMachBuffer:     true,
		MachBufferEntries: 2048,
		MachBufferWays:    4,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.FPS <= 0:
		return fmt.Errorf("display: fps %d", c.FPS)
	case c.Power < 0:
		return fmt.Errorf("display: power %g", c.Power)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("display: line bytes %d", c.LineBytes)
	case c.UseDisplayCache && c.DisplayCacheBytes <= 0:
		return fmt.Errorf("display: cache bytes %d", c.DisplayCacheBytes)
	case c.UseMachBuffer && (c.MachBufferEntries <= 0 || c.MachBufferWays <= 0 || c.MachBufferEntries%c.MachBufferWays != 0):
		return fmt.Errorf("display: MACH buffer shape %d/%d", c.MachBufferEntries, c.MachBufferWays)
	}
	return nil
}

// FramePeriod returns the refresh interval.
func (c Config) FramePeriod() sim.Time {
	return sim.Time(int64(sim.Second) / int64(c.FPS))
}

// Stats aggregates DC behaviour.
type Stats struct {
	FramesShown    int64
	FrameRepeats   int64 // refreshes that re-showed the previous frame (drops)
	MemLineReads   int64 // line reads actually sent to DRAM
	MetaLineReads  int64 // of which: layout metadata (pointers/digests/bases/bitmap)
	PrefetchReads  int64 // of which: MACH-buffer prefetch traffic
	Fragmented     int64 // content fetches split across two lines
	DCHits         int64 // display-cache hits
	DCLookups      int64
	MachBufHits    int64 // inter matches served on-chip
	MachBufMisses  int64 // digest records that fell back to memory
	DigestRecords  int64 // records indexed by digest (Fig 10d)
	PointerRecords int64
	ActiveEnergy   energy.Joules // scan power integrated over shown frames
}

// DCHitRate returns the display-cache hit rate.
func (s Stats) DCHitRate() float64 {
	if s.DCLookups == 0 {
		return 0
	}
	return float64(s.DCHits) / float64(s.DCLookups)
}

// machBufEntry is one digest-indexed slot of the MACH buffer.
type machBufEntry struct {
	digest uint32
	ptr    uint64
	valid  bool
	lru    uint64
}

// Controller is the display controller instance.
type Controller struct {
	cfg Config
	mem *dram.Memory

	dcache *cache.SetAssoc

	mbSets, mbWays int
	machBuf        []machBufEntry
	mbTick         uint64

	stats Stats

	// sortScratch is Prefetch's sort buffer. It is not state: every Prefetch
	// call rewrites it in full.
	sortScratch []framebuf.DumpEntry
}

// New builds a controller; it panics on invalid configuration.
func New(cfg Config, mem *dram.Memory) *Controller {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	c := &Controller{cfg: cfg, mem: mem}
	if cfg.UseDisplayCache {
		c.dcache = cache.NewDirectMapped(cfg.DisplayCacheBytes, cfg.LineBytes)
	}
	if cfg.UseMachBuffer {
		c.mbWays = cfg.MachBufferWays
		c.mbSets = cfg.MachBufferEntries / cfg.MachBufferWays
		if c.mbSets&(c.mbSets-1) != 0 {
			panic(fmt.Sprintf("display: MACH buffer sets %d not a power of two", c.mbSets))
		}
		c.machBuf = make([]machBufEntry, cfg.MachBufferEntries)
	}
	return c
}

// Config returns the controller configuration.
func (c *Controller) Config() Config { return c.cfg }

// Stats returns accumulated counters.
func (c *Controller) Stats() Stats { return c.stats }

// mbLookup searches the MACH buffer by digest.
func (c *Controller) mbLookup(digest uint32) (uint64, bool) {
	if c.machBuf == nil {
		return 0, false
	}
	base := (int(digest) & (c.mbSets - 1)) * c.mbWays
	for w := 0; w < c.mbWays; w++ {
		e := &c.machBuf[base+w]
		if e.valid && e.digest == digest {
			c.mbTick++
			e.lru = c.mbTick
			return e.ptr, true
		}
	}
	return 0, false
}

// mbInsert fills one MACH buffer entry.
func (c *Controller) mbInsert(digest uint32, ptr uint64) {
	if c.machBuf == nil {
		return
	}
	base := (int(digest) & (c.mbSets - 1)) * c.mbWays
	victim := base
	for w := 0; w < c.mbWays; w++ {
		e := &c.machBuf[base+w]
		if !e.valid {
			victim = base + w
			break
		}
		if e.lru < c.machBuf[victim].lru {
			victim = base + w
		}
	}
	c.mbTick++
	c.machBuf[victim] = machBufEntry{digest: digest, ptr: ptr, valid: true, lru: c.mbTick}
}

// Prefetch loads a frame's frozen-MACH dump into the MACH buffer (§5.1),
// issuing the dump reads and the content fills as posted memory reads at
// time now. It is called by the pipeline when a decoded frame's layout is
// handed over for display, once per displayed frame.
func (c *Controller) Prefetch(now sim.Time, l *framebuf.FrameLayout) {
	if !c.cfg.UseMachBuffer || l.Kind != framebuf.LayoutPtrDigest || len(l.Dump) == 0 {
		return
	}
	dumpBytes := len(l.Dump) * 8
	for off := 0; off < dumpBytes; off += c.cfg.LineBytes {
		c.mem.Access(now, l.DumpBase+uint64(off), false)
		c.stats.MemLineReads++
		c.stats.PrefetchReads++
	}
	// Prefetch the content each entry points at, sorted by address so the
	// engine sweeps rows instead of ping-ponging between them; the content
	// usually sits in lines the scan-out will touch anyway, so it goes
	// through the display cache to avoid double charging.
	sorted := append(c.sortScratch[:0], l.Dump...)
	c.sortScratch = sorted
	slices.SortFunc(sorted, func(a, b framebuf.DumpEntry) int { return cmp.Compare(a.Ptr, b.Ptr) })
	lineBytes := uint64(c.cfg.LineBytes)
	for _, e := range sorted {
		first, last, n := cache.LineSpan(e.Ptr, uint64(l.MabBytes), lineBytes)
		for ln := first; n > 0 && ln <= last; ln += lineBytes {
			c.readLine(now, ln, true)
		}
		c.mbInsert(e.Digest, e.Ptr)
	}
}

// readLine performs one line read through the display cache; prefetch marks
// accounting as prefetch traffic. It reports whether DRAM was accessed.
func (c *Controller) readLine(now sim.Time, addr uint64, prefetch bool) bool {
	if c.dcache != nil {
		c.stats.DCLookups++
		if c.dcache.Access(addr, false).Hit {
			c.stats.DCHits++
			return false
		}
	}
	c.mem.Access(now, addr, false)
	c.stats.MemLineReads++
	if prefetch {
		c.stats.PrefetchReads++
	}
	return true
}

// ScanOut reads one frame through the layout, pacing reads across the frame
// period starting at start. It returns the number of line reads issued to
// memory for this frame. It runs once per displayed frame.
func (c *Controller) ScanOut(start sim.Time, l *framebuf.FrameLayout) int64 {
	before := c.stats.MemLineReads
	period := c.cfg.FramePeriod()
	lineBytes := uint64(c.cfg.LineBytes)

	// The DC fetches in FIFO bursts (BurstLines back-to-back line reads),
	// as real display pipes do; pacing is at burst granularity.
	const burstLines = 4

	// Every read of a group is paced at the group's first read, so the
	// pacing time is computed once per group.
	switch l.Kind {
	case framebuf.LayoutRaw:
		frameBytes := uint64(len(l.Records) * l.MabBytes)
		total := int64((frameBytes + lineBytes - 1) / lineBytes)
		for g := int64(0); g < total; g += burstLines {
			at := start + sim.Time(int64(period)*g/total)
			for i := g; i < min(g+burstLines, total); i++ {
				c.readLine(at, l.BufferBase+uint64(i)*lineBytes, false)
			}
		}
	default:
		// Pointer layouts fetch through a deeper FIFO: 256-record groups,
		// so the dedup-scattered content reads of one group land together
		// and share row activations.
		const groupRecords = 256
		n := len(l.Records)
		var at sim.Time
		for i, rec := range l.Records {
			if i%groupRecords == 0 {
				at = start + sim.Time(int64(period)*int64(i)/int64(n))
			}
			// Metadata stream: the pointer/digest array is sequential, so
			// one line covers 16 records; the display cache makes the
			// repeats free.
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
				// Fallback: re-read the dump to find the pointer (the
				// writeback resolved it into the record), then fetch the
				// content.
				c.readLine(at, l.DumpBase, false)
				c.readContent(at, rec.Ptr, l.MabBytes)
			default:
				c.stats.PointerRecords++
				c.readContent(at, rec.Ptr, l.MabBytes)
			}
		}
		if l.Gradient {
			// Base array: 3 bytes per record, sequential after the pointers.
			baseStart := l.MetaBase + uint64(len(l.Records)*4)
			baseBytes := uint64(len(l.Records) * 3)
			group := 16 * lineBytes
			for g := uint64(0); g < baseBytes; g += group {
				at := start + sim.Time(int64(period)*int64(g)/int64(baseBytes))
				for off := g; off < min(g+group, baseBytes); off += lineBytes {
					if c.readLine(at, (baseStart+off)&^(lineBytes-1), false) {
						c.stats.MetaLineReads++
					}
				}
			}
		}
	}

	c.stats.FramesShown++
	c.stats.ActiveEnergy += c.cfg.Power.Over(period)
	return c.stats.MemLineReads - before
}

// readContent fetches a mab-sized content block, counting fragmentation
// when it straddles a line boundary (§5's request-fragmentation problem).
func (c *Controller) readContent(at sim.Time, addr uint64, size int) {
	lineBytes := uint64(c.cfg.LineBytes)
	first, last, n := cache.LineSpan(addr, uint64(size), lineBytes)
	if n > 1 {
		c.stats.Fragmented++
	}
	for ln := first; n > 0 && ln <= last; ln += lineBytes {
		c.readLine(at, ln, false)
	}
}

// RepeatFrame accounts a refresh that found no new frame (a drop): the DC
// re-scans the previous frame. Re-reading costs the same scan power; memory
// traffic is modelled as a raw re-read of the previous layout when given,
// or power-only when the previous frame is unknown.
func (c *Controller) RepeatFrame(start sim.Time, prev *framebuf.FrameLayout) {
	c.stats.FrameRepeats++
	if prev != nil {
		c.ScanOut(start, prev)
		c.stats.FramesShown-- // the repeat is not a new frame
	} else {
		c.stats.ActiveEnergy += c.cfg.Power.Over(c.cfg.FramePeriod())
	}
}
