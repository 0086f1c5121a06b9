package hashes

// CollisionTracker measures digest collisions over a stream of blocks:
// distinct block contents that map to the same digest. It is the measurement
// machinery behind the paper's Fig 12d ("one colliding 4x4 block in around
// 200 frames" for CRC32, reduced to ~zero by the 48-bit CO-MACH digest).
//
// Exact collision detection requires remembering full block contents; the
// tracker stores a strong 128-bit fingerprint (MD5) per digest instead, which
// makes a false collision report astronomically unlikely while bounding
// memory to 20 bytes per distinct digest.

import "crypto/md5"

// CollisionTracker counts digest collisions for one digest function.
type CollisionTracker struct {
	fn         Func
	seen       map[uint32][16]byte
	Blocks     int64 // total blocks observed
	Distinct   int64 // distinct digests observed
	Collisions int64 // blocks whose digest matched a different content
}

// NewCollisionTracker returns a tracker for digest function fn.
func NewCollisionTracker(fn Func) *CollisionTracker {
	return &CollisionTracker{fn: fn, seen: make(map[uint32][16]byte)}
}

// Observe records one block and reports whether it collided with previously
// seen, different content under the tracked digest.
func (t *CollisionTracker) Observe(block []byte) bool {
	t.Blocks++
	d := Digest32(t.fn, block)
	fp := md5.Sum(block)
	prev, ok := t.seen[d]
	if !ok {
		t.seen[d] = fp
		t.Distinct++
		return false
	}
	if prev != fp {
		t.Collisions++
		return true
	}
	return false
}

// DeepCollisionTracker is the 48-bit (CRC32+CRC16) analogue used to verify
// the CO-MACH design claim that deep digests remove collisions in practice.
type DeepCollisionTracker struct {
	seen       map[uint64][16]byte
	Blocks     int64
	Collisions int64
}

// NewDeepCollisionTracker returns an empty deep tracker.
func NewDeepCollisionTracker() *DeepCollisionTracker {
	return &DeepCollisionTracker{seen: make(map[uint64][16]byte)}
}

// Observe records one block and reports whether the 48-bit digest collided.
func (t *DeepCollisionTracker) Observe(block []byte) bool {
	t.Blocks++
	d := Deep48(block)
	fp := md5.Sum(block)
	prev, ok := t.seen[d]
	if !ok {
		t.seen[d] = fp
		return false
	}
	if prev != fp {
		t.Collisions++
		return true
	}
	return false
}
