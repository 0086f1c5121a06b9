package codec

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// BitWriter packs bits MSB-first into a byte slice. It is the entropy-coder
// substrate; the decoder-IP timing model charges work per bit parsed.
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

// ErrBitstream is returned when a reader runs past the end of the stream or
// decodes a malformed code.
var ErrBitstream = errors.New("codec: malformed or truncated bitstream")

// BitReader consumes bits MSB-first from a byte slice.
type BitReader struct {
	buf  []byte
	pos  int  // byte position
	nCur uint // bits consumed from buf[pos]
	bits int64
}

// NewBitReader wraps data for reading.
func NewBitReader(data []byte) *BitReader { return &BitReader{buf: data} }

// ReadBit consumes one bit.
func (r *BitReader) ReadBit() (uint32, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrBitstream
	}
	b := (r.buf[r.pos] >> (7 - r.nCur)) & 1
	r.nCur++
	r.bits++
	if r.nCur == 8 {
		r.nCur = 0
		r.pos++
	}
	return uint32(b), nil
}

// ReadBits consumes n bits (n <= 32) and returns them right-aligned. A read
// past the end of the stream consumes what is left and fails.
func (r *BitReader) ReadBits(n uint) (uint32, error) {
	if n > 32 {
		panic("codec: ReadBits n > 32")
	}
	left := int64(len(r.buf)-r.pos)*8 - int64(r.nCur)
	if int64(n) > left {
		r.skip(uint(left))
		return 0, ErrBitstream
	}
	var v uint32
	for n > 0 {
		k := min(8-r.nCur, n)
		v = v<<k | uint32(r.buf[r.pos]<<r.nCur>>(8-k))
		r.skip(k)
		n -= k
	}
	return v, nil
}

// skip consumes k bits, which the stream must still hold.
func (r *BitReader) skip(k uint) {
	r.bits += int64(k)
	k += r.nCur
	r.pos += int(k / 8)
	r.nCur = k % 8
}

// ReadUE consumes an unsigned Exp-Golomb code: a prefix of n zeros, a one,
// and n more bits. The prefix is counted a byte at a time. A prefix longer
// than 32 zeros, or a code worth 2^32 or more, is malformed: no 32-bit value
// encodes to it.
func (r *BitReader) ReadUE() (uint32, error) {
	n := uint(0)
	for {
		if r.pos >= len(r.buf) {
			return 0, ErrBitstream
		}
		avail := 8 - r.nCur
		zeros := min(uint(bits.LeadingZeros8(r.buf[r.pos]<<r.nCur)), avail)
		if n+zeros > 32 {
			r.skip(33 - n)
			return 0, fmt.Errorf("%w: ue prefix too long", ErrBitstream)
		}
		n += zeros
		if zeros < avail {
			r.skip(zeros + 1)
			break
		}
		r.skip(avail)
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	v := uint64(1)<<n | uint64(rest) - 1
	if v > math.MaxUint32 {
		return 0, fmt.Errorf("%w: ue value overflows 32 bits", ErrBitstream)
	}
	return uint32(v), nil
}

// ReadSE consumes a signed Exp-Golomb code.
func (r *BitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

// BitsRead returns the number of bits consumed so far.
func (r *BitReader) BitsRead() int64 { return r.bits }
