package codec

// Reference kernels: the straightforward implementations the production
// kernels replaced, kept as test oracles. Each is the simplest correct form
// of its kernel (copy every candidate block, move one bit per call, transpose
// between the row and column passes); the property tests require the
// production code to match them value for value and bit for bit.

// refMotionSearch copies every candidate block and takes its full SAD.
func refMotionSearch(ref *Frame, x0, y0, size, radius int, src []byte) (MotionVector, int) {
	cand := make([]byte, size*size*BytesPerPixel)
	ref.CopyBlock(x0, y0, size, cand)
	best := MotionVector{}
	bestSAD := SAD(src, cand)
	if bestSAD == 0 {
		return best, 0
	}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			ref.CopyBlock(x0+dx, y0+dy, size, cand)
			if sad := SAD(src, cand); sad < bestSAD {
				bestSAD = sad
				best = MotionVector{DX: int8(dx), DY: int8(dy)}
				if bestSAD == 0 {
					return best, 0
				}
			}
		}
	}
	return best, bestSAD
}

// refBestIntraMode predicts every mode into a fresh buffer and takes its
// full SAD.
func refBestIntraMode(recon *Frame, x0, y0, size int, src []byte) (IntraMode, int) {
	pred := make([]byte, size*size*BytesPerPixel)
	best, bestSAD := IntraDC, int(^uint(0)>>1)
	for m := IntraMode(0); m < numIntraModes; m++ {
		IntraPredict(recon, x0, y0, size, m, pred)
		if sad := SAD(src, pred); sad < bestSAD {
			best, bestSAD = m, sad
		}
	}
	return best, bestSAD
}

// refBitWriter appends one bit per call.
type refBitWriter struct {
	buf  []byte
	cur  byte
	nCur uint
	bits int64
}

func (w *refBitWriter) WriteBit(b uint32) {
	w.cur = w.cur<<1 | byte(b&1)
	w.nCur++
	w.bits++
	if w.nCur == 8 {
		w.buf = append(w.buf, w.cur)
		w.cur, w.nCur = 0, 0
	}
}

func (w *refBitWriter) WriteBits(v uint32, n uint) {
	for i := int(n) - 1; i >= 0; i-- {
		w.WriteBit(v >> uint(i))
	}
}

func (w *refBitWriter) WriteUE(v uint32) {
	x := uint64(v) + 1
	n := uint(0)
	for t := x; t > 1; t >>= 1 {
		n++
	}
	for i := uint(0); i < n; i++ {
		w.WriteBit(0)
	}
	for i := int(n); i >= 0; i-- {
		w.WriteBit(uint32(x >> uint(i)))
	}
}

func (w *refBitWriter) WriteSE(v int32) {
	var u uint32
	if v > 0 {
		u = uint32(v)*2 - 1
	} else {
		u = uint32(-v) * 2
	}
	w.WriteUE(u)
}

func (w *refBitWriter) Bytes() []byte {
	out := append([]byte(nil), w.buf...)
	if w.nCur > 0 {
		out = append(out, w.cur<<(8-w.nCur))
	}
	return out
}

// refHadamardRows applies the N-point butterfly to each row.
func refHadamardRows(m []int32, n int) {
	for r := 0; r < n; r++ {
		row := m[r*n : (r+1)*n]
		for span := 1; span < n; span <<= 1 {
			for i := 0; i < n; i += span << 1 {
				for j := i; j < i+span; j++ {
					a, b := row[j], row[j+span]
					row[j], row[j+span] = a+b, a-b
				}
			}
		}
	}
}

func refTranspose(m []int32, n int) {
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			m[r*n+c], m[c*n+r] = m[c*n+r], m[r*n+c]
		}
	}
}

// refForwardTransform transforms the rows, then the columns by transposing
// around a second row pass.
func refForwardTransform(block []int32, n int) {
	refHadamardRows(block, n)
	refTranspose(block, n)
	refHadamardRows(block, n)
	refTranspose(block, n)
}

// refInverseTransform is refForwardTransform followed by a rounding
// division by N*N.
func refInverseTransform(block []int32, n int) {
	refForwardTransform(block, n)
	scale := int32(n * n)
	half := scale / 2
	for i, v := range block {
		if v >= 0 {
			block[i] = (v + half) / scale
		} else {
			block[i] = -((-v + half) / scale)
		}
	}
}
