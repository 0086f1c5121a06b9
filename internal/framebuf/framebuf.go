// Package framebuf manages the simulated frame-buffer memory: the pool of
// decoded-frame buffers (double/triple/N-buffering, §2.1) and the three
// memory layouts of Fig 9c that the MACH writeback engine produces and the
// display controller consumes:
//
//	(i)   Raw        — mabs stored sequentially, no metadata.
//	(ii)  Ptr        — a pointer array; unique content compacted.
//	(iii) PtrDigest  — pointers mixed with digests plus a bitmap (§5.1), so
//	                   inter-frame matches resolve in the display's MACH
//	                   buffer without touching memory.
//
// The MACH writeback resolves every digest record's content address when
// the frame's MACH freezes and stores it in the record, so the decoder and
// the display read MabRecord.Ptr for every record kind; the layout's Dump
// is what the display prefetches into its MACH buffer.
package framebuf

import "fmt"

// LayoutKind selects the frame-buffer memory layout.
type LayoutKind int

const (
	// LayoutRaw is the baseline sequential layout (Fig 9c-i).
	LayoutRaw LayoutKind = iota
	// LayoutPtr is the pointer-indirect MACH layout (Fig 9c-ii).
	LayoutPtr
	// LayoutPtrDigest is the display-optimized layout (Fig 9c-iii).
	LayoutPtrDigest
)

func (k LayoutKind) String() string {
	switch k {
	case LayoutRaw:
		return "raw"
	case LayoutPtr:
		return "ptr"
	case LayoutPtrDigest:
		return "ptr+digest"
	default:
		return fmt.Sprintf("LayoutKind(%d)", int(k))
	}
}

// RecordKind classifies one mab's entry in the layout metadata.
type RecordKind uint8

const (
	// RecFull: the mab's unique content is stored; Ptr addresses it.
	RecFull RecordKind = iota
	// RecPointer: content matched; Ptr addresses the earlier copy
	// (intra-match, or inter-match under LayoutPtr).
	RecPointer
	// RecDigest: inter-match under LayoutPtrDigest; the display resolves
	// Digest in its MACH buffer, and Ptr holds the content address the
	// frame's frozen MACH held for it.
	RecDigest
)

func (k RecordKind) String() string {
	switch k {
	case RecFull:
		return "full"
	case RecPointer:
		return "ptr"
	case RecDigest:
		return "digest"
	default:
		return fmt.Sprintf("RecordKind(%d)", int(k))
	}
}

// MabRecord is the per-mab metadata of layouts (ii) and (iii). In gab mode
// each record also streams a 3-byte base pixel (§4.3); its bytes are
// accounted in FrameLayout.MetaBytes, but nothing downstream reads its
// value, so the record does not carry it.
//
// Ptr is set for every kind. A RecDigest record's Ptr is written when the
// frame's MACH freezes: the pointer that MACH held for Digest, or the
// buffer base when the digest was evicted before the freeze.
type MabRecord struct {
	Kind   RecordKind
	Ptr    uint64 // content address
	Digest uint32 // content digest (RecDigest)
}

// DumpEntry is one element of a frame's frozen-MACH dump: the digest->pointer
// pairs the display prefetches into its MACH buffer (§5.1).
type DumpEntry struct {
	Digest uint32
	Ptr    uint64
}

// FrameLayout is the complete description of one decoded frame as resident
// in memory.
type FrameLayout struct {
	Kind         LayoutKind
	DisplayIndex int
	MabBytes     int // decoded bytes per mab
	Gradient     bool

	BufferBase uint64 // base address of the frame's buffer slot
	MetaBase   uint64 // where the pointer/digest array lives
	DumpBase   uint64 // where the frozen MACH dump lives (layout iii)

	Records []MabRecord

	ContentBytes uint64 // unique content written
	MetaBytes    uint64 // pointers + digests + bases + bitmap written
	Dump         []DumpEntry
}

// Pool is the frame-buffer allocator. It mirrors the Android double/triple
// buffering setup but can grow: the high-water mark is the measurement
// behind Fig 12a ("extra frame buffers needed").
type Pool struct {
	base      uint64
	slotBytes uint64
	free      []int
	next      int // next never-used slot index
	inUse     map[int]bool
	highWater int
}

// NewPool creates a pool at the given base address with the given per-slot
// capacity. Slots are created on demand; highWater tracks the peak.
func NewPool(base, slotBytes uint64) *Pool {
	if slotBytes == 0 {
		panic("framebuf: zero slot size")
	}
	return &Pool{base: base, slotBytes: slotBytes, inUse: make(map[int]bool)}
}

// Acquire returns a free slot id and its base address, growing the pool when
// all existing slots are busy. The pipeline acquires one slot per decoded
// frame; in steady state that pops the free stack and never grows the pool.
func (p *Pool) Acquire() (slot int, addr uint64) {
	if n := len(p.free); n > 0 {
		slot = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		slot = p.next
		p.next++
	}
	p.inUse[slot] = true
	if len(p.inUse) > p.highWater {
		p.highWater = len(p.inUse)
	}
	return slot, p.SlotAddr(slot)
}

// SlotAddr returns the base address of a slot.
func (p *Pool) SlotAddr(slot int) uint64 { return p.base + uint64(slot)*p.slotBytes }

// Release returns a slot to the pool; releasing a slot that is not in use
// panics (a pipeline accounting bug). The pipeline releases one slot per
// retired frame.
func (p *Pool) Release(slot int) {
	if !p.inUse[slot] {
		panic(fmt.Sprintf("framebuf: release of slot %d not in use", slot))
	}
	delete(p.inUse, slot)
	p.free = append(p.free, slot)
}

// InUse returns the number of currently held slots.
func (p *Pool) InUse() int { return len(p.inUse) }

// HighWater returns the peak number of simultaneously held slots.
func (p *Pool) HighWater() int { return p.highWater }

// Address-space map of the simulated SoC. Regions are spaced far apart so
// streams never alias; the DRAM model only consumes the raw addresses.
const (
	// RegionEncoded holds the buffered compressed frames.
	RegionEncoded uint64 = 0x1000_0000
	// RegionFrameBuffers holds the decoded frame-buffer pool.
	RegionFrameBuffers uint64 = 0x4000_0000
	// RegionMachDumps holds the per-frame frozen MACH dumps.
	RegionMachDumps uint64 = 0xC000_0000
)
