package trace

import (
	"sync"

	"mach/internal/hashes"
)

// Variant identifies one prehash variant: everything besides the decoded
// pixels that decides the digest MACH computes for a mab. The mab size is
// the trace's own (Params.MabSize).
type Variant struct {
	Gradient   bool        // gab mode hashes the gradient block, mab mode the pixels
	Digest     hashes.Func // the 32-bit digest function
	CoMach     bool        // CO-MACH variants also carry a CRC16 aux hash per mab
	QuantShift int         // ABR requantization depth applied before hashing
}

// DigestTable memoizes one variant's per-mab digests for every frame of a
// trace. Every session replaying the trace under that variant would hash
// the same pixels to the same values, so the first session to reach a
// frame hashes it into the table and every later one reads it. Storage is
// reserved up front; frames are filled lazily, one at a time, in place.
type DigestTable struct {
	mu     sync.Mutex
	mabs   int      // mabs per frame
	ready  []bool   // by display index; guarded by mu
	digest []uint32 // frame-major: display index * mabs + mab ordinal
	aux    []uint16 // same shape; nil unless the variant runs CO-MACH
}

// Digests returns the trace's digest table for v, reserving its storage on
// first use. Safe for concurrent use.
func (t *Trace) Digests(v Variant) *DigestTable {
	t.digestMu.Lock()
	defer t.digestMu.Unlock()
	if d, ok := t.digests[v]; ok {
		return d
	}
	mabs := t.Params.MabsPerFrame()
	d := &DigestTable{
		mabs:   mabs,
		ready:  make([]bool, len(t.Frames)),
		digest: make([]uint32, len(t.Frames)*mabs),
	}
	if v.CoMach {
		d.aux = make([]uint16, len(d.digest))
	}
	if t.digests == nil {
		t.digests = make(map[Variant]*DigestTable)
	}
	t.digests[v] = d
	return d
}

// Frame returns the per-mab digests of the frame with display index i, and
// its CO-MACH aux hashes (nil for other variants). The first caller to
// reach the frame computes them with fill, under the table's lock; fill
// must write every slot of both slices. The returned slices are read-only
// and stay valid for the life of the trace. Safe for concurrent use.
func (d *DigestTable) Frame(i int, fill func(digest []uint32, aux []uint16)) ([]uint32, []uint16) {
	lo, hi := i*d.mabs, (i+1)*d.mabs
	digest := d.digest[lo:hi:hi]
	var aux []uint16
	if d.aux != nil {
		aux = d.aux[lo:hi:hi]
	}
	d.mu.Lock()
	if !d.ready[i] {
		fill(digest, aux)
		d.ready[i] = true
	}
	d.mu.Unlock()
	return digest, aux
}
