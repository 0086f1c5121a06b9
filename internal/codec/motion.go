package codec

// Motion estimation and compensation for P/B mabs. P mabs carry a motion
// vector into the previous reference frame; B mabs predict as the average of
// a backward and a forward reference block (§2.2 footnote 1).

import "math"

// MotionVector is a full-pixel displacement into a reference frame.
type MotionVector struct {
	DX, DY int8
}

// MotionSearch finds the displacement within +/- radius (full search over a
// small window, as hardware estimators do at coarse level) that minimizes
// SAD against src for the block at (x0, y0) in ref. It returns the best
// vector and its SAD. The zero vector is evaluated first and the rest in
// raster order, and only a strictly smaller SAD replaces the best, so static
// content yields MV (0,0) and ties go to the earliest candidate.
//
// A candidate stops being summed once its partial SAD reaches the best so
// far: it could no longer replace the best, so the result is that of a full
// search, and the returned SAD is always a complete sum.
func MotionSearch(ref *Frame, x0, y0, size, radius int, src []byte) (MotionVector, int) {
	best := MotionVector{}
	bestSAD := ref.blockSAD(x0, y0, size, src, math.MaxInt)
	if bestSAD == 0 {
		return best, 0
	}
	for dy := -radius; dy <= radius; dy++ {
		for dx := -radius; dx <= radius; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			if sad := ref.blockSAD(x0+dx, y0+dy, size, src, bestSAD); sad < bestSAD {
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

// blockSAD returns the SAD between src and the size x size block of f at
// (x0, y0), read in place with CopyBlock's edge clamping. It stops after the
// first row that brings the sum to limit or beyond, so a result >= limit
// only says the block does not beat limit. Rows are clamped once each;
// pixels are clamped only for blocks that cross the left or right edge.
func (f *Frame) blockSAD(x0, y0, size int, src []byte, limit int) int {
	rowBytes := size * BytesPerPixel
	inside := x0 >= 0 && x0+size <= f.W
	s := 0
	for dy := 0; dy < size; dy++ {
		y := clamp(y0+dy, 0, f.H-1)
		want := src[dy*rowBytes : (dy+1)*rowBytes]
		if inside {
			s += sumAbsDiff(want, f.Pix[f.Offset(x0, y):])
		} else {
			for dx := 0; dx < size; dx++ {
				o := f.Offset(clamp(x0+dx, 0, f.W-1), y)
				s += sumAbsDiff(want[dx*BytesPerPixel:(dx+1)*BytesPerPixel], f.Pix[o:])
			}
		}
		if s >= limit {
			return s
		}
	}
	return s
}

// Compensate fills dst with the motion-compensated prediction: the block at
// (x0+mv.DX, y0+mv.DY) in ref.
func Compensate(ref *Frame, x0, y0, size int, mv MotionVector, dst []byte) {
	ref.CopyBlock(x0+int(mv.DX), y0+int(mv.DY), size, dst)
}

// CompensateBi fills dst with the rounded average of predictions from two
// reference frames, as used by B mabs. tmp is scratch of dst's length.
func CompensateBi(back, fwd *Frame, x0, y0, size int, mvb, mvf MotionVector, dst, tmp []byte) {
	Compensate(back, x0, y0, size, mvb, dst)
	Compensate(fwd, x0, y0, size, mvf, tmp)
	for i := range dst {
		dst[i] = byte((int(dst[i]) + int(tmp[i]) + 1) / 2)
	}
}
