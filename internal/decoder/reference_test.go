package decoder

import (
	"slices"
	"testing"

	"mach/internal/codec"
	"mach/internal/framebuf"
)

// floorDiv and refMabAddrsDiv are the division forms refMabAddrs replaced
// with arithmetic shifts, kept as its oracle.

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}

func refMabAddrsDiv(l *framebuf.FrameLayout, mabX, mabY int, mv codec.MotionVector, mabSize, mabsPerRow, mabsPerCol int) (meta, content []uint64) {
	x0 := mabX*mabSize + int(mv.DX)
	y0 := mabY*mabSize + int(mv.DY)
	firstMX, lastMX := floorDiv(x0, mabSize), floorDiv(x0+mabSize-1, mabSize)
	firstMY, lastMY := floorDiv(y0, mabSize), floorDiv(y0+mabSize-1, mabSize)
	for my := firstMY; my <= lastMY; my++ {
		cy := clampInt(my, 0, mabsPerCol-1)
		for mx := firstMX; mx <= lastMX; mx++ {
			cx := clampInt(mx, 0, mabsPerRow-1)
			idx := cy*mabsPerRow + cx
			rec := l.Records[idx]
			switch l.Kind {
			case framebuf.LayoutRaw:
				content = append(content, l.BufferBase+uint64(idx*l.MabBytes))
			default:
				meta = append(meta, l.MetaBase+uint64(idx*4))
				content = append(content, rec.Ptr)
			}
		}
	}
	return meta, content
}

func TestFloorDiv(t *testing.T) {
	cases := []struct{ a, b, want int }{
		{7, 4, 1}, {-1, 4, -1}, {-4, 4, -1}, {-5, 4, -2}, {0, 4, 0},
	}
	for _, c := range cases {
		if got := floorDiv(c.a, c.b); got != c.want {
			t.Errorf("floorDiv(%d,%d) = %d want %d", c.a, c.b, got, c.want)
		}
	}
	// The shift refMabAddrs uses floors the same way for every power of
	// two the codec allows.
	for shift := uint(1); shift <= 4; shift++ {
		for a := -100; a <= 100; a++ {
			if got, want := a>>shift, floorDiv(a, 1<<shift); got != want {
				t.Fatalf("%d>>%d = %d, floorDiv = %d", a, shift, got, want)
			}
		}
	}
}

// refLayouts returns a raw and a pointer+digest layout of a frame of
// mabsPerRow x mabsPerCol mabs. The digest layout mixes full, pointer and
// digest records, resolved the way the MACH writeback resolves them: a
// digest in the dump points where its entry does, and the ones missing
// from the dump fall back to the buffer base.
func refLayouts(mabSize, mabsPerRow, mabsPerCol int) []*framebuf.FrameLayout {
	n := mabsPerRow * mabsPerCol
	mabBytes := mabSize * mabSize * codec.BytesPerPixel
	raw := &framebuf.FrameLayout{Kind: framebuf.LayoutRaw, MabBytes: mabBytes, BufferBase: framebuf.RegionFrameBuffers}
	dig := &framebuf.FrameLayout{
		Kind: framebuf.LayoutPtrDigest, MabBytes: mabBytes,
		BufferBase: framebuf.RegionFrameBuffers + 1<<20, MetaBase: framebuf.RegionFrameBuffers + 3<<20,
	}
	for i := 0; i < n; i++ {
		raw.Records = append(raw.Records, framebuf.MabRecord{Kind: framebuf.RecFull, Ptr: raw.BufferBase + uint64(i*mabBytes)})
		rec := framebuf.MabRecord{Kind: framebuf.RecFull, Ptr: dig.BufferBase + uint64(i*mabBytes)}
		switch i % 3 {
		case 1:
			rec = framebuf.MabRecord{Kind: framebuf.RecPointer, Ptr: dig.BufferBase + uint64(i/2*mabBytes)}
		case 2:
			rec = framebuf.MabRecord{Kind: framebuf.RecDigest, Ptr: dig.BufferBase, Digest: uint32(1000 + i)}
			if i%4 != 0 {
				rec.Ptr = 0x5000_0000 + uint64(i)*7
				dig.Dump = append(dig.Dump, framebuf.DumpEntry{Digest: rec.Digest, Ptr: rec.Ptr})
			}
		}
		dig.Records = append(dig.Records, rec)
	}
	return []*framebuf.FrameLayout{raw, dig}
}

// TestRefMabAddrsMatchesReference compares refMabAddrs with its division
// oracle for every motion vector in [-16, 16]^2 at every mab of a small
// frame (its corners, edges and interior) at each mab size the codec
// allows, on both layout families.
func TestRefMabAddrsMatchesReference(t *testing.T) {
	const mabsPerRow, mabsPerCol = 5, 4
	ip := New(DefaultConfig(), testMem())
	for mabShift := uint(1); mabShift <= 4; mabShift++ {
		mabSize := 1 << mabShift
		for _, l := range refLayouts(mabSize, mabsPerRow, mabsPerCol) {
			for mabY := 0; mabY < mabsPerCol; mabY++ {
				for mabX := 0; mabX < mabsPerRow; mabX++ {
					for dy := -16; dy <= 16; dy++ {
						for dx := -16; dx <= 16; dx++ {
							mv := codec.MotionVector{DX: int8(dx), DY: int8(dy)}
							meta, content := ip.refMabAddrs(l, mabX, mabY, mv, mabShift, mabsPerRow, mabsPerCol)
							wantMeta, wantContent := refMabAddrsDiv(l, mabX, mabY, mv, mabSize, mabsPerRow, mabsPerCol)
							if !slices.Equal(meta, wantMeta) || !slices.Equal(content, wantContent) {
								t.Fatalf("%v mab %d at (%d,%d) mv (%d,%d): meta %v content %v, want %v %v",
									l.Kind, mabSize, mabX, mabY, dx, dy, meta, content, wantMeta, wantContent)
							}
						}
					}
				}
			}
		}
	}
}
