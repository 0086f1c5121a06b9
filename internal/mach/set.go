package mach

import (
	"fmt"

	"mach/internal/framebuf"
)

// Replacement selects the MACH victim policy. The paper uses LRU "due to
// its simplicity" and leaves smarter digest-residency policies to future
// work (§4.5); LFU and FIFO are provided for that ablation.
type Replacement int

const (
	// LRU evicts the least recently matched entry (the paper's policy).
	LRU Replacement = iota
	// LFU evicts the least frequently matched entry, approximating
	// "keep the most useful digests".
	LFU
	// FIFO evicts in insertion order, ignoring reuse.
	FIFO
)

func (p Replacement) String() string {
	switch p {
	case LRU:
		return "lru"
	case LFU:
		return "lfu"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("Replacement(%d)", int(p))
	}
}

// digestCache is one MACH instance: a small set-associative cache whose tag
// is a content digest and whose value is the memory address of that content
// (§4.2). The paper's configuration is 256 entries, 4-way, LRU, indexed by
// the low bits of the digest. With CO-MACH enabled each entry carries a
// 16-bit auxiliary hash used to detect CRC32 collisions (§6.3).
type digestCache struct {
	sets, ways int
	policy     Replacement
	entries    []machEntry
	tick       uint64
}

type machEntry struct {
	digest uint32
	aux    uint16
	ptr    uint64
	origin int // display index of the frame whose buffer holds the content
	valid  bool
	lru    uint64 // recency stamp (LRU) or insertion stamp (FIFO)
	hits   uint32 // match count (LFU)
}

func newDigestCache(entries, ways int) *digestCache {
	return newDigestCachePolicy(entries, ways, LRU)
}

func newDigestCachePolicy(entries, ways int, policy Replacement) *digestCache {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic(fmt.Sprintf("mach: bad cache shape %d/%d", entries, ways))
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("mach: set count %d not a power of two", sets))
	}
	return &digestCache{sets: sets, ways: ways, policy: policy, entries: make([]machEntry, entries)}
}

// reset returns the cache to its freshly constructed state so a retired
// instance can serve as the next frame's current MACH without reallocating
// the entry array.
func (c *digestCache) reset() {
	for i := range c.entries {
		c.entries[i] = machEntry{}
	}
	c.tick = 0
}

func (c *digestCache) setIndex(digest uint32) int {
	// §4.4: all 32 digest bits are uniformly distributed; the paper indexes
	// with the low bits.
	return int(digest) & (c.sets - 1)
}

// lookup returns the stored pointer and its content's origin frame for
// digest. With useAux, an entry whose digest matches but whose auxiliary
// hash differs is reported as a detected collision (and not returned as a
// hit).
func (c *digestCache) lookup(digest uint32, aux uint16, useAux bool) (ptr uint64, origin int, hit, collision bool) {
	base := c.setIndex(digest) * c.ways
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if e.valid && e.digest == digest {
			if useAux && e.aux != aux {
				return 0, 0, false, true
			}
			c.tick++
			if c.policy != FIFO {
				e.lru = c.tick
			}
			e.hits++
			return e.ptr, e.origin, true, false
		}
	}
	return 0, 0, false, false
}

// peek returns the pointer stored for digest, ignoring the auxiliary hash,
// without touching the replacement state: it reads a frozen MACH, whose
// stamps and hit counts stay as the freeze left them.
func (c *digestCache) peek(digest uint32) (uint64, bool) {
	base := c.setIndex(digest) * c.ways
	for _, e := range c.entries[base : base+c.ways] {
		if e.valid && e.digest == digest {
			return e.ptr, true
		}
	}
	return 0, false
}

// insert adds (digest, aux) -> (ptr, origin), evicting the set's victim
// under the configured replacement policy.
func (c *digestCache) insert(digest uint32, aux uint16, ptr uint64, origin int) {
	base := c.setIndex(digest) * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		e := &c.entries[base+w]
		if !e.valid {
			victim = base + w
			break
		}
		v := &c.entries[victim]
		worse := false
		if c.policy == LFU {
			worse = e.hits < v.hits || (e.hits == v.hits && e.lru < v.lru)
		} else {
			worse = e.lru < v.lru
		}
		if worse {
			victim = base + w
		}
	}
	c.tick++
	c.entries[victim] = machEntry{digest: digest, aux: aux, ptr: ptr, origin: origin, valid: true, lru: c.tick}
}

// dumpInto appends the frozen MACH contents as digest->pointer pairs to dst,
// the per-frame dump the display controller prefetches into its MACH buffer
// (§5.1). Callers pass a recycled layout's Dump[:0] so steady-state frames
// reuse the prior capacity.
func (c *digestCache) dumpInto(dst []framebuf.DumpEntry) []framebuf.DumpEntry {
	for _, e := range c.entries {
		if e.valid {
			dst = append(dst, framebuf.DumpEntry{Digest: e.digest, Ptr: e.ptr})
		}
	}
	return dst
}

// occupancy returns the number of valid entries.
func (c *digestCache) occupancy() int {
	n := 0
	for _, e := range c.entries {
		if e.valid {
			n++
		}
	}
	return n
}

// heldSet is a one-sided summary of the digests the frozen MACH history
// holds: one bit per bucket of a multiplicative hash of the digest, 16
// buckets per history entry (about 6% false positives when the history is
// full). A clear bit proves that no frozen MACH holds the digest, so the
// history walk can be skipped; a set bit proves nothing, and the walk runs.
// It is derived from the history and rebuilt whole whenever the history
// changes rather than maintained entry by entry.
type heldSet struct {
	bits  []uint64
	shift uint // 32 minus log2 of the bucket count
}

// Bucket-count bounds: a word at least, and 128 KB at most however large
// the history grows; the size changes only the false-positive rate.
const (
	heldMinLog2 = 6
	heldMaxLog2 = 20
)

func newHeldSet(historyEntries int) heldSet {
	lg := heldMinLog2
	for lg < heldMaxLog2 && 1<<lg < 16*historyEntries {
		lg++
	}
	return heldSet{bits: make([]uint64, 1<<lg/64), shift: uint(32 - lg)}
}

// bucket is the Fibonacci hash of digest into the bit array.
func (h *heldSet) bucket(digest uint32) uint32 { return digest * 0x9E3779B1 >> h.shift }

// mayHold reports whether some frozen MACH can hold digest.
func (h *heldSet) mayHold(digest uint32) bool {
	b := h.bucket(digest)
	return h.bits[b>>6]&(1<<(b&63)) != 0
}

// rebuild clears the bits and sets one per valid entry of history. It is a
// no-op for an engine without a summary (the raw layout never classifies).
func (h *heldSet) rebuild(history []*digestCache) {
	if h.bits == nil {
		return
	}
	clear(h.bits)
	for _, c := range history {
		for i := range c.entries {
			if e := &c.entries[i]; e.valid {
				b := h.bucket(e.digest)
				h.bits[b>>6] |= 1 << (b & 63)
			}
		}
	}
}

// coMach is the collision cache of §6.3: fully tagged by the 48-bit deep
// digest (CRC32 concatenated with CRC16), it stores the entries whose CRC32
// collided in the per-frame MACHs. 128 entries x 4 ways ≈ the paper's 1.5KB.
type coMach struct {
	cache *digestCache
}

func newCoMach(entries, ways int) *coMach {
	return &coMach{cache: newDigestCache(entries, ways)}
}

// lookup searches by the full 48-bit identity (digest + aux as tag parts).
func (c *coMach) lookup(digest uint32, aux uint16) (uint64, bool) {
	ptr, _, hit, _ := c.cache.lookup(digest, aux, true)
	return ptr, hit
}

func (c *coMach) insert(digest uint32, aux uint16, ptr uint64, origin int) {
	c.cache.insert(digest, aux, ptr, origin)
}
