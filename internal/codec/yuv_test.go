package codec

import (
	"testing"
	"testing/quick"
)

// yuvToRGB inverts rgbToYUV (within fixed-point rounding error): the
// round-trip oracle for the converter.
func yuvToRGB(y, u, v byte) (r, g, b byte) {
	yi, ui, vi := int32(y), int32(u)-128, int32(v)-128
	rr := yi + (359*vi)>>8
	gg := yi - (88*ui+183*vi)>>8
	bb := yi + (454*ui)>>8
	return clamp255(rr), clamp255(gg), clamp255(bb)
}

// FromYUV444 converts a YUV444 frame back to RGB.
func FromYUV444(f *Frame) *Frame {
	out := NewFrame(f.W, f.H)
	for i := 0; i < len(f.Pix); i += 3 {
		r, g, b := yuvToRGB(f.Pix[i], f.Pix[i+1], f.Pix[i+2])
		out.Pix[i], out.Pix[i+1], out.Pix[i+2] = r, g, b
	}
	return out
}

func TestYUVPixelRoundTrip(t *testing.T) {
	f := func(r, g, b byte) bool {
		y, u, v := rgbToYUV(r, g, b)
		r2, g2, b2 := yuvToRGB(y, u, v)
		// Fixed-point BT.601 round trip is within a few levels.
		d := func(a, b byte) int {
			x := int(a) - int(b)
			if x < 0 {
				x = -x
			}
			return x
		}
		return d(r, r2) <= 4 && d(g, g2) <= 4 && d(b, b2) <= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGreyIsNeutralChroma(t *testing.T) {
	for _, v := range []byte{0, 64, 128, 200, 255} {
		y, u, cv := rgbToYUV(v, v, v)
		if int(u)-128 < -2 || int(u)-128 > 2 || int(cv)-128 < -2 || int(cv)-128 > 2 {
			t.Fatalf("grey %d chroma = %d/%d", v, u, cv)
		}
		if int(y)-int(v) < -2 || int(y)-int(v) > 2 {
			t.Fatalf("grey %d luma = %d", v, y)
		}
	}
}

func TestYUV444FrameRoundTrip(t *testing.T) {
	f := gradientFrame(32, 16, 3)
	back := FromYUV444(ToYUV444(f))
	if p := PSNR(f, back); p < 40 {
		t.Fatalf("YUV444 round-trip PSNR = %.1f dB", p)
	}
}

func TestFlatYUVStaysFlat(t *testing.T) {
	// The colour-space generality claim (§4): a flat RGB region converts
	// to a flat YUV region, so zero-gradient gab matching survives the
	// colour-space change.
	f := NewFrame(8, 8)
	for i := 0; i < len(f.Pix); i += 3 {
		f.Pix[i], f.Pix[i+1], f.Pix[i+2] = 10, 200, 90
	}
	y := ToYUV444(f)
	for i := 3; i < len(y.Pix); i++ {
		if y.Pix[i] != y.Pix[i%3] {
			t.Fatal("flat RGB must convert to flat YUV")
		}
	}
}
