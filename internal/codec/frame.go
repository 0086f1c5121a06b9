// Package codec implements a from-scratch toy block video codec with the
// same pipeline structure as the standards the paper targets (H.264/H.265/
// VP9): frames are split into square macroblocks (mabs), each mab is
// predicted (intra from neighbours, or motion-compensated from reference
// frames for P/B mabs), and the residual is transformed with an integer 4x4
// (generally 2^k x 2^k) transform, quantized, zig-zag scanned, run-length
// coded and entropy coded with Exp-Golomb codes into a real bitstream.
//
// The codec exists to drive the decoder-IP and MACH models with faithful
// *work* (bits parsed, coefficients reconstructed, reference fetches) and
// faithful *content* (decoded pixel streams whose intra/inter similarity the
// content caches exploit). It is lossless at Quant=1 for the transform path
// and visually lossy-but-stable at higher quantizers.
package codec

import (
	"fmt"
	"math"
)

// BytesPerPixel is the decoded pixel size: RGB, 8 bits per channel, matching
// the Android framebuffer format the paper assumes (§4).
const BytesPerPixel = 3

// Frame is a decoded RGB image, row-major, tightly packed.
type Frame struct {
	W, H int
	Pix  []byte // len == W*H*BytesPerPixel
}

// NewFrame allocates a zeroed (black) frame.
func NewFrame(w, h int) *Frame {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("codec: invalid frame size %dx%d", w, h))
	}
	return &Frame{W: w, H: h, Pix: make([]byte, w*h*BytesPerPixel)}
}

// Clone returns a deep copy of f.
func (f *Frame) Clone() *Frame {
	g := &Frame{W: f.W, H: f.H, Pix: make([]byte, len(f.Pix))}
	copy(g.Pix, f.Pix)
	return g
}

// Offset returns the byte offset of pixel (x, y).
func (f *Frame) Offset(x, y int) int { return (y*f.W + x) * BytesPerPixel }

// At returns the RGB value at (x, y).
func (f *Frame) At(x, y int) (r, g, b byte) {
	o := f.Offset(x, y)
	return f.Pix[o], f.Pix[o+1], f.Pix[o+2]
}

// Set writes the RGB value at (x, y).
func (f *Frame) Set(x, y int, r, g, b byte) {
	o := f.Offset(x, y)
	f.Pix[o], f.Pix[o+1], f.Pix[o+2] = r, g, b
}

// SizeBytes returns the decoded frame footprint.
func (f *Frame) SizeBytes() int { return len(f.Pix) }

// CopyBlock copies the size x size block whose top-left pixel is (x0, y0)
// into dst (size*size*BytesPerPixel bytes, row-major). Out-of-bounds source
// pixels are clamped to the frame edge, so motion vectors may point slightly
// outside the frame as in real codecs.
func (f *Frame) CopyBlock(x0, y0, size int, dst []byte) {
	need := size * size * BytesPerPixel
	if len(dst) < need {
		panic(fmt.Sprintf("codec: CopyBlock dst %d < %d", len(dst), need))
	}
	for dy := 0; dy < size; dy++ {
		y := clamp(y0+dy, 0, f.H-1)
		for dx := 0; dx < size; dx++ {
			x := clamp(x0+dx, 0, f.W-1)
			so := f.Offset(x, y)
			do := (dy*size + dx) * BytesPerPixel
			dst[do] = f.Pix[so]
			dst[do+1] = f.Pix[so+1]
			dst[do+2] = f.Pix[so+2]
		}
	}
}

// SetBlock writes a size x size block (row-major RGB) with its top-left at
// (x0, y0). The block must lie fully inside the frame.
func (f *Frame) SetBlock(x0, y0, size int, src []byte) {
	if x0 < 0 || y0 < 0 || x0+size > f.W || y0+size > f.H {
		panic(fmt.Sprintf("codec: SetBlock %d,%d size %d outside %dx%d", x0, y0, size, f.W, f.H))
	}
	for dy := 0; dy < size; dy++ {
		so := dy * size * BytesPerPixel
		do := f.Offset(x0, y0+dy)
		copy(f.Pix[do:do+size*BytesPerPixel], src[so:so+size*BytesPerPixel])
	}
}

// MabsPerRow returns how many mabs of the given size fit across the frame.
// The frame dimensions must be exact multiples of the mab size.
func (f *Frame) MabsPerRow(mabSize int) int { return f.W / mabSize }

// MabsPerCol returns how many mab rows the frame has.
func (f *Frame) MabsPerCol(mabSize int) int { return f.H / mabSize }

// NumMabs returns the total mab count for the given mab size.
func (f *Frame) NumMabs(mabSize int) int {
	return f.MabsPerRow(mabSize) * f.MabsPerCol(mabSize)
}

// PSNR computes the peak signal-to-noise ratio between two equally sized
// frames, in dB. Identical frames return +Inf.
func PSNR(a, b *Frame) float64 {
	if a.W != b.W || a.H != b.H {
		panic("codec: PSNR on mismatched frames")
	}
	var se float64
	for i := range a.Pix {
		d := float64(int(a.Pix[i]) - int(b.Pix[i]))
		se += d * d
	}
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(len(a.Pix))
	return 10 * math.Log10(255*255/mse)
}

// SAD returns the sum of absolute differences between two RGB blocks.
func SAD(a, b []byte) int {
	if len(a) != len(b) {
		panic("codec: SAD on mismatched blocks")
	}
	return sumAbsDiff(a, b)
}

// sumAbsDiff returns the sum of |a[i]-b[i]| over a; b must be at least as
// long as a.
func sumAbsDiff(a, b []byte) int {
	b = b[:len(a)]
	s := 0
	for i := range a {
		d := int(a[i]) - int(b[i])
		if d < 0 {
			d = -d
		}
		s += d
	}
	return s
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampByte(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}
