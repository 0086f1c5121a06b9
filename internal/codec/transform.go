package codec

// Integer block transform and quantization. The transform is the 2^k-point
// Walsh-Hadamard transform applied separably to rows and columns; like the
// H.264 core transform it is integer-exact, self-inverse up to a known scale
// (N*N for an NxN block), and energy-compacting on the smooth residuals that
// prediction leaves behind. Quantization divides coefficients by a uniform
// step with round-to-nearest; Quant=1 is lossless.

import "fmt"

// hadamardRows applies an in-place N-point Hadamard butterfly to each row of
// the NxN matrix m (N must be a power of two).
func hadamardRows(m []int32, n int) {
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

func transpose(m []int32, n int) {
	for r := 0; r < n; r++ {
		for c := r + 1; c < n; c++ {
			m[r*n+c], m[c*n+r] = m[c*n+r], m[r*n+c]
		}
	}
}

// ForwardTransform computes the 2-D Hadamard transform of the NxN residual
// block in place. n must be a power of two in [2, 16].
func ForwardTransform(block []int32, n int) {
	checkTransformShape(block, n)
	hadamardRows(block, n)
	transpose(block, n)
	hadamardRows(block, n)
	transpose(block, n)
}

// InverseTransform inverts ForwardTransform in place, including the N*N
// normalization, with round-to-nearest so quantized paths stay centred.
func InverseTransform(block []int32, n int) {
	checkTransformShape(block, n)
	hadamardRows(block, n)
	transpose(block, n)
	hadamardRows(block, n)
	transpose(block, n)
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

func checkTransformShape(block []int32, n int) {
	if n < 2 || n > 16 || n&(n-1) != 0 {
		panic(fmt.Sprintf("codec: transform size %d not a power of two in [2,16]", n))
	}
	if len(block) < n*n {
		panic(fmt.Sprintf("codec: transform block %d < %d", len(block), n*n))
	}
}

// Quantize divides each coefficient by step with round-to-nearest, in place,
// and returns the number of nonzero quantized coefficients. step must be >= 1.
func Quantize(block []int32, step int32) (nonzero int) {
	if step < 1 {
		panic("codec: quantizer step < 1")
	}
	half := step / 2
	for i, v := range block {
		var q int32
		if v >= 0 {
			q = (v + half) / step
		} else {
			q = -((-v + half) / step)
		}
		block[i] = q
		if q != 0 {
			nonzero++
		}
	}
	return nonzero
}

// Dequantize multiplies each coefficient by step in place.
func Dequantize(block []int32, step int32) {
	for i := range block {
		block[i] *= step
	}
}

// zigzagOrders holds the scan order of every valid block size (a power of
// two in [2,16]). It is built at package init and only read afterwards, so
// encoders and decoders on concurrent goroutines share it without locking.
var zigzagOrders = [...][]int{2: zigzag(2), 4: zigzag(4), 8: zigzag(8), 16: zigzag(16)}

// ZigZag returns the zig-zag scan order for an NxN block: the permutation
// from raster index to scan position, ordering coefficients by increasing
// anti-diagonal (low frequencies first), which groups trailing zeros for the
// run-length coder.
func ZigZag(n int) []int {
	if n < len(zigzagOrders) && zigzagOrders[n] != nil {
		return zigzagOrders[n]
	}
	return zigzag(n)
}

func zigzag(n int) []int {
	order := make([]int, 0, n*n)
	for s := 0; s <= 2*(n-1); s++ {
		if s%2 == 0 { // walk up-right
			for y := min(s, n-1); y >= 0 && s-y < n; y-- {
				order = append(order, y*n+(s-y))
			}
		} else { // walk down-left
			for x := min(s, n-1); x >= 0 && s-x < n; x-- {
				order = append(order, (s-x)*n+x)
			}
		}
	}
	return order
}

// EncodeCoeffs writes the quantized NxN coefficient block as zig-zag-ordered
// (run, level) pairs with Exp-Golomb codes, terminated by an end-of-block
// marker, and returns the number of nonzero levels written.
func EncodeCoeffs(w *BitWriter, block []int32, n int) (nonzero int) {
	order := ZigZag(n)
	run := uint32(0)
	for _, idx := range order {
		v := block[idx]
		if v == 0 {
			run++
			continue
		}
		w.WriteBit(1) // pair marker
		w.WriteUE(run)
		w.WriteSE(v)
		run = 0
		nonzero++
	}
	w.WriteBit(0) // end of block
	return nonzero
}

// DecodeCoeffs reads what EncodeCoeffs wrote into block (zeroing it first)
// and returns the nonzero count.
func DecodeCoeffs(r *BitReader, block []int32, n int) (nonzero int, err error) {
	order := ZigZag(n)
	for i := range block[:n*n] {
		block[i] = 0
	}
	pos := 0
	for {
		marker, err := r.ReadBit()
		if err != nil {
			return nonzero, err
		}
		if marker == 0 {
			return nonzero, nil
		}
		run, err := r.ReadUE()
		if err != nil {
			return nonzero, err
		}
		level, err := r.ReadSE()
		if err != nil {
			return nonzero, err
		}
		pos += int(run)
		if pos >= len(order) || level == 0 {
			return nonzero, fmt.Errorf("%w: coefficient overrun", ErrBitstream)
		}
		block[order[pos]] = level
		pos++
		nonzero++
	}
}
