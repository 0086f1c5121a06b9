package codec

import "math/bits"

// BitWriter packs bits MSB-first into a byte slice. It is the entropy-coder
// substrate; the decoder-IP timing model charges work per bit parsed, which
// the encoder counts as the bits written.
type BitWriter struct {
	buf  []byte
	cur  byte
	nCur uint // bits used in cur
	bits int64
}

// NewBitWriter returns an empty writer.
func NewBitWriter() *BitWriter { return &BitWriter{} }

// WriteBit appends one bit.
func (w *BitWriter) WriteBit(b uint32) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	w.bits++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

// WriteBits appends the low n bits of v, most significant first. n <= 32.
func (w *BitWriter) WriteBits(v uint32, n uint) {
	if n > 32 {
		panic("codec: WriteBits n > 32")
	}
	w.writeBits(uint64(v), n)
}

// writeBits appends the low n bits of v (n <= 64), filling the current byte
// with as many of them as it has room for per step.
func (w *BitWriter) writeBits(v uint64, n uint) {
	w.bits += int64(n)
	for n > 0 {
		k := min(8-w.nCur, n)
		n -= k
		w.cur = w.cur<<k | byte(v>>n&(1<<k-1))
		w.nCur += k
		if w.nCur == 8 {
			w.buf = append(w.buf, w.cur)
			w.cur, w.nCur = 0, 0
		}
	}
}

// WriteUE appends v as an unsigned Exp-Golomb code (as in H.264 ue(v)): for
// x = v+1 of bit length n+1, n zeros and then x in n+1 bits.
func (w *BitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(bits.Len64(x)) - 1
	w.writeBits(0, n)
	w.writeBits(x, n+1)
}

// WriteSE appends v as a signed Exp-Golomb code (se(v) mapping).
func (w *BitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(v)*2 - 1
	} else {
		u = uint32(-v) * 2
	}
	w.WriteUE(u)
}

// Bits returns the number of bits written so far.
func (w *BitWriter) Bits() int64 { return w.bits }

// Bytes flushes the partial byte (zero-padded) and returns the buffer. The
// writer remains usable; further writes continue bit-exact after the pad is
// dropped on the next flush.
func (w *BitWriter) Bytes() []byte {
	out := make([]byte, len(w.buf), len(w.buf)+1)
	copy(out, w.buf)
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}
