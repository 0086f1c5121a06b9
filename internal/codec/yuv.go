package codec

// Colour-space support. The paper assumes RGB frame buffers (Android
// gralloc) but notes the technique "is generic and can be applied to all
// the other color spaces (e.g., YUV, YCbCr)" (§4). This converter lets the
// content-caching experiments verify that claim: YUV444 keeps the 3-byte
// pixel layout, so every downstream component works unchanged.

// clamp255 clamps the fixed-point conversion results.
func clamp255(v int32) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

// rgbToYUV converts one pixel with BT.601 full-range fixed-point math.
func rgbToYUV(r, g, b byte) (y, u, v byte) {
	ri, gi, bi := int32(r), int32(g), int32(b)
	yy := (77*ri + 150*gi + 29*bi) >> 8
	uu := ((-43*ri - 85*gi + 128*bi) >> 8) + 128
	vv := ((128*ri - 107*gi - 21*bi) >> 8) + 128
	return clamp255(yy), clamp255(uu), clamp255(vv)
}

// ToYUV444 converts an RGB frame to YUV444 with the same interleaved
// 3-byte-per-pixel layout (byte order Y, U, V).
func ToYUV444(f *Frame) *Frame {
	out := NewFrame(f.W, f.H)
	for i := 0; i < len(f.Pix); i += 3 {
		y, u, v := rgbToYUV(f.Pix[i], f.Pix[i+1], f.Pix[i+2])
		out.Pix[i], out.Pix[i+1], out.Pix[i+2] = y, u, v
	}
	return out
}
