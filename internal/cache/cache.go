// Package cache provides address-indexed hardware cache models used across
// the SoC: the video decoder's internal decode cache (Fig 7a sweep) and the
// display controller's direct-mapped display cache (§5.1, Fig 10c).
//
// The models are behavioural: they track tag-store state and hit/miss/writeback
// counts for 64-byte lines but do not hold data. Data movement is accounted by
// the memory system.
package cache

import (
	"fmt"
	"math/bits"
)

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	Writebacks int64 // evictions of dirty lines
}

// Accesses returns hits + misses.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// HitRate returns hits / accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Hits) / float64(a)
}

func (s Stats) String() string {
	return fmt.Sprintf("acc=%d hit=%.2f%% evict=%d wb=%d", s.Accesses(), 100*s.HitRate(), s.Evictions, s.Writebacks)
}

// way holds one resident line.
type way struct {
	tag   uint64
	dirty bool
}

// SetAssoc is an N-way set-associative cache with true-LRU replacement.
// Line size and set count are powers of two, so a line address splits into
// set index (low bits) and tag (the rest) by shift and mask. Each set keeps
// its resident lines in recency order, most recent first, so its least
// recently used line is its last resident one.
type SetAssoc struct {
	sets      int
	ways      int
	lines     []way // sets*ways, row-major by set
	used      []int // per set: its first used ways hold resident lines
	stats     Stats
	lineShift uint
	setShift  uint
}

// NewSetAssoc builds a cache of capacityBytes with the given line size and
// associativity. capacityBytes must be an exact multiple of lineSize*ways and
// the set count must be a power of two (hardware-indexable).
func NewSetAssoc(capacityBytes, lineSize, ways int) *SetAssoc {
	if capacityBytes <= 0 || lineSize <= 0 || ways <= 0 {
		panic("cache: non-positive shape")
	}
	if capacityBytes%(lineSize*ways) != 0 {
		panic(fmt.Sprintf("cache: capacity %d not divisible by line*ways %d", capacityBytes, lineSize*ways))
	}
	sets := capacityBytes / (lineSize * ways)
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d not a power of two", sets))
	}
	if lineSize&(lineSize-1) != 0 {
		panic(fmt.Sprintf("cache: line size %d not a power of two", lineSize))
	}
	return &SetAssoc{
		sets:      sets,
		ways:      ways,
		lines:     make([]way, sets*ways),
		used:      make([]int, sets),
		lineShift: uint(bits.TrailingZeros(uint(lineSize))),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
	}
}

// NewDirectMapped builds a 1-way cache (the display cache organization).
func NewDirectMapped(capacityBytes, lineSize int) *SetAssoc {
	return NewSetAssoc(capacityBytes, lineSize, 1)
}

// Stats returns the event counters accumulated so far.
func (c *SetAssoc) Stats() Stats { return c.stats }

func (c *SetAssoc) set(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & uint64(c.sets-1)), lineAddr >> c.setShift
}

// AccessResult describes the outcome of one cache access.
type AccessResult struct {
	Hit           bool
	Writeback     bool   // a dirty victim was evicted
	WritebackAddr uint64 // line address of the dirty victim (valid if Writeback)
}

// Access looks up the line containing addr and moves it to the front of its
// set. A missing line enters at the front, evicting nothing while the set
// has an empty way, else the set's last, least recently used, line. write
// marks the line dirty.
func (c *SetAssoc) Access(addr uint64, write bool) AccessResult {
	setIdx, tag := c.set(addr)
	set := c.lines[setIdx*c.ways : (setIdx+1)*c.ways]
	n := c.used[setIdx]
	w := 0
	for w < n && set[w].tag != tag {
		w++
	}

	res := AccessResult{Hit: w < n}
	switch {
	case res.Hit:
		c.stats.Hits++
		write = write || set[w].dirty
	case n < c.ways:
		c.stats.Misses++
		c.used[setIdx]++
	default:
		c.stats.Misses++
		c.stats.Evictions++
		w--
		if set[w].dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = (set[w].tag<<c.setShift | uint64(setIdx)) << c.lineShift
		}
	}
	for ; w > 0; w-- { // shift the more recent lines back over way w
		set[w] = set[w-1]
	}
	set[0] = way{tag: tag, dirty: write}
	return res
}

// LineSpan returns the first and last line-aligned addresses covered by the
// byte range [addr, addr+size) plus the line count; lineSize is a power of
// two. Iterating `for a := first; n > 0 && a <= last; a += lineSize` visits
// every line in ascending order; this is where request fragmentation (§5)
// becomes visible: a 48-byte mab fetch that straddles a line boundary
// produces two memory requests.
func LineSpan(addr, size, lineSize uint64) (first, last uint64, n int) {
	if size == 0 {
		return 0, 0, 0
	}
	first = addr &^ (lineSize - 1)
	last = (addr + size - 1) &^ (lineSize - 1)
	return first, last, int((last-first)>>bits.TrailingZeros64(lineSize)) + 1
}
