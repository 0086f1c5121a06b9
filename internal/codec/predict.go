package codec

// Intra prediction. I-type mabs are predicted from already-reconstructed
// neighbour pixels of the same frame (§2.2): DC (average of the top row and
// left column), Horizontal (extend left column), or Vertical (extend top
// row). The encoder picks the mode with the lowest SAD against the source.

import "math"

// IntraMode selects the intra predictor.
type IntraMode uint8

const (
	// IntraDC predicts every pixel as the mean of available neighbours.
	IntraDC IntraMode = iota
	// IntraHorizontal extends the left neighbour column across the block.
	IntraHorizontal
	// IntraVertical extends the top neighbour row down the block.
	IntraVertical

	numIntraModes
)

func (m IntraMode) String() string {
	switch m {
	case IntraDC:
		return "DC"
	case IntraHorizontal:
		return "H"
	case IntraVertical:
		return "V"
	default:
		return "?"
	}
}

// IntraPredict fills dst (size*size*BytesPerPixel) with the prediction for
// the block at (x0, y0) using mode, reading reconstructed neighbours from
// recon. Missing neighbours (frame edges) fall back to mid-grey 128, as in
// real codecs.
func IntraPredict(recon *Frame, x0, y0, size int, mode IntraMode, dst []byte) {
	var top, left [16 * BytesPerPixel]byte
	haveTop := y0 > 0
	haveLeft := x0 > 0
	if haveTop {
		for dx := 0; dx < size; dx++ {
			r, g, b := recon.At(clamp(x0+dx, 0, recon.W-1), y0-1)
			top[dx*3], top[dx*3+1], top[dx*3+2] = r, g, b
		}
	}
	if haveLeft {
		for dy := 0; dy < size; dy++ {
			r, g, b := recon.At(x0-1, clamp(y0+dy, 0, recon.H-1))
			left[dy*3], left[dy*3+1], left[dy*3+2] = r, g, b
		}
	}

	switch mode {
	case IntraHorizontal:
		for dy := 0; dy < size; dy++ {
			var r, g, b byte = 128, 128, 128
			if haveLeft {
				r, g, b = left[dy*3], left[dy*3+1], left[dy*3+2]
			}
			for dx := 0; dx < size; dx++ {
				o := (dy*size + dx) * 3
				dst[o], dst[o+1], dst[o+2] = r, g, b
			}
		}
	case IntraVertical:
		for dx := 0; dx < size; dx++ {
			var r, g, b byte = 128, 128, 128
			if haveTop {
				r, g, b = top[dx*3], top[dx*3+1], top[dx*3+2]
			}
			for dy := 0; dy < size; dy++ {
				o := (dy*size + dx) * 3
				dst[o], dst[o+1], dst[o+2] = r, g, b
			}
		}
	default: // IntraDC
		var sum [3]int
		n := 0
		if haveTop {
			for dx := 0; dx < size; dx++ {
				sum[0] += int(top[dx*3])
				sum[1] += int(top[dx*3+1])
				sum[2] += int(top[dx*3+2])
			}
			n += size
		}
		if haveLeft {
			for dy := 0; dy < size; dy++ {
				sum[0] += int(left[dy*3])
				sum[1] += int(left[dy*3+1])
				sum[2] += int(left[dy*3+2])
			}
			n += size
		}
		var r, g, b byte = 128, 128, 128
		if n > 0 {
			r = byte((sum[0] + n/2) / n)
			g = byte((sum[1] + n/2) / n)
			b = byte((sum[2] + n/2) / n)
		}
		for i := 0; i < size*size; i++ {
			dst[i*3], dst[i*3+1], dst[i*3+2] = r, g, b
		}
	}
}

// BestIntraMode evaluates all intra modes against src and returns the one
// with the lowest SAD (and that SAD), the earliest mode on a tie. pred is
// scratch of the block's size. As in MotionSearch, a mode stops being summed
// once its partial SAD reaches the best so far, which cannot change the
// choice, and the returned SAD is a complete sum.
func BestIntraMode(recon *Frame, x0, y0, size int, src, pred []byte) (IntraMode, int) {
	rowBytes := size * BytesPerPixel
	best, bestSAD := IntraDC, math.MaxInt
	for m := IntraMode(0); m < numIntraModes; m++ {
		IntraPredict(recon, x0, y0, size, m, pred)
		sad := 0
		for o := 0; o < size*rowBytes && sad < bestSAD; o += rowBytes {
			sad += sumAbsDiff(src[o:o+rowBytes], pred[o:])
		}
		if sad < bestSAD {
			best, bestSAD = m, sad
		}
	}
	return best, bestSAD
}
