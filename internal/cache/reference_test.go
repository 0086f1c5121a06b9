package cache

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// This file keeps the forms SetAssoc and LineSpan replaced, as oracles:
// refCache is the former tag-store walk (set index and tag by remainder and
// quotient, a per-line LRU stamp from a global tick, one loop that both
// looks for the hit and picks the victim, the writeback address rebuilt by
// multiply and add), and linesFor is the former slice-building line
// splitter.

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

type refCache struct {
	lineSize uint64
	sets     int
	ways     int
	lines    []line
	tick     uint64
	stats    Stats
}

func newRefCache(capacityBytes, lineSize, ways int) *refCache {
	sets := capacityBytes / (lineSize * ways)
	return &refCache{lineSize: uint64(lineSize), sets: sets, ways: ways, lines: make([]line, sets*ways)}
}

func (c *refCache) set(addr uint64) (setIdx int, tag uint64) {
	lineAddr := addr / c.lineSize
	return int(lineAddr % uint64(c.sets)), lineAddr / uint64(c.sets)
}

func (c *refCache) Access(addr uint64, write bool) AccessResult {
	setIdx, tag := c.set(addr)
	base := setIdx * c.ways
	c.tick++

	victim := base
	for w := 0; w < c.ways; w++ {
		ln := &c.lines[base+w]
		if ln.valid && ln.tag == tag {
			ln.lru = c.tick
			if write {
				ln.dirty = true
			}
			c.stats.Hits++
			return AccessResult{Hit: true}
		}
		if !c.lines[victim].valid {
			continue // keep first invalid way as victim
		}
		if !ln.valid || ln.lru < c.lines[victim].lru {
			victim = base + w
		}
	}

	c.stats.Misses++
	res := AccessResult{}
	v := &c.lines[victim]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = (v.tag*uint64(c.sets) + uint64(setIdx)) * c.lineSize
		}
	}
	*v = line{tag: tag, valid: true, dirty: write, lru: c.tick}
	return res
}

// linesFor returns the distinct line-aligned addresses touched by the byte
// range [addr, addr+size).
func linesFor(addr, size, lineSize uint64) []uint64 {
	if size == 0 {
		return nil
	}
	first := addr / lineSize * lineSize
	last := (addr + size - 1) / lineSize * lineSize
	out := make([]uint64, 0, (last-first)/lineSize+1)
	for a := first; a <= last; a += lineSize {
		out = append(out, a)
	}
	return out
}

// cacheShapes are the geometries the simulator builds: the 32 KB 4-way
// decode cache and its Fig 7a sweep, and the 16 KB direct-mapped display
// cache and its Fig 10c sweep, all over 64 B lines; plus a few other line
// sizes and associativities, and single-set caches, whose tags are the
// whole line address: 64 bits wide over 1 B lines.
func cacheShapes() [][3]int {
	shapes := [][3]int{{32 << 10, 64, 4}, {16 << 10, 64, 1}, {4096, 32, 2}, {8192, 128, 8}, {1024, 64, 16}}
	for _, kb := range []int{16, 32, 64, 128, 256} { // Fig 7a
		shapes = append(shapes, [3]int{kb << 10, 64, 4})
	}
	for _, kb := range []int{1, 2, 4, 8, 16, 32, 64, 128} { // Fig 10c
		shapes = append(shapes, [3]int{kb << 10, 64, 1})
	}
	return append(shapes, [3]int{1, 1, 1}, [3]int{4, 1, 4}, [3]int{16, 1, 16}, [3]int{256, 64, 4})
}

// stream draws addresses that hit, conflict and evict: most from a hot
// region half the capacity, some from a region four times it, a few from
// anywhere below 2^48, and a few from a pool spread over the whole 64-bit
// range. The pool holds 0 and the all-ones address, and pairs that differ
// only in the top bit, which a tag store that packs a flag into the tag
// would confuse.
func stream(rng *rand.Rand, capacity int, n int) (addrs []uint64, writes []bool) {
	pool := []uint64{0, math.MaxUint64, 1 << 63, math.MaxUint64 >> 1}
	for len(pool) < 12 {
		a := rng.Uint64()
		pool = append(pool, a, a^1<<63)
	}
	for i := 0; i < n; i++ {
		var a uint64
		switch r := rng.Intn(20); {
		case r < 12:
			a = uint64(rng.Intn(capacity/2 + 1))
		case r < 17:
			a = uint64(rng.Intn(4 * capacity))
		case r < 18:
			a = rng.Uint64() >> 16
		default:
			a = pool[rng.Intn(len(pool))]
		}
		addrs = append(addrs, a)
		writes = append(writes, rng.Intn(10) < 3)
	}
	return addrs, writes
}

// recency returns set s's resident lines in the oracle, most recently used
// first: the order SetAssoc keeps them in.
func (c *refCache) recency(s int) []line {
	var out []line
	for _, ln := range c.lines[s*c.ways : (s+1)*c.ways] {
		if ln.valid {
			out = append(out, ln)
		}
	}
	slices.SortFunc(out, func(a, b line) int { return cmp.Compare(b.lru, a.lru) })
	return out
}

// checkSet compares set s's lines, in recency order, with the oracle's.
func checkSet(t *testing.T, c *SetAssoc, ref *refCache, s int) {
	t.Helper()
	want := ref.recency(s)
	if c.used[s] != len(want) {
		t.Fatalf("set %d holds %d lines, want %d", s, c.used[s], len(want))
	}
	for w, ln := range want {
		if got := c.lines[s*c.ways+w]; got != (way{tag: ln.tag, dirty: ln.dirty}) {
			t.Fatalf("set %d way %d holds %+v, want tag %#x dirty %v", s, w, got, ln.tag, ln.dirty)
		}
	}
}

func checkAgainstReference(t *testing.T, c *SetAssoc, ref *refCache, addrs []uint64, writes []bool) {
	t.Helper()
	for i, a := range addrs {
		got, want := c.Access(a, writes[i]), ref.Access(a, writes[i])
		if got != want {
			t.Fatalf("access %d (%#x write=%v): got %+v want %+v", i, a, writes[i], got, want)
		}
		s, _ := ref.set(a)
		checkSet(t, c, ref, s)
	}
	if got, want := c.Stats(), ref.stats; got != want {
		t.Fatalf("stats %+v want %+v", got, want)
	}
	for s := 0; s < ref.sets; s++ {
		checkSet(t, c, ref, s)
	}
}

func TestAccessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range cacheShapes() {
		c, ref := NewSetAssoc(sh[0], sh[1], sh[2]), newRefCache(sh[0], sh[1], sh[2])
		addrs, writes := stream(rng, sh[0], 20000)
		checkAgainstReference(t, c, ref, addrs, writes)
	}
}
