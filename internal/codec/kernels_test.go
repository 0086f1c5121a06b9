package codec

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelFrame fills a w x h frame with one of three contents: flat (every
// candidate ties), a few levels (many ties), or noise (few ties).
func kernelFrame(rng *rand.Rand, w, h int, content string) *Frame {
	f := NewFrame(w, h)
	for i := range f.Pix {
		switch content {
		case "flat":
			f.Pix[i] = 77
		case "levels":
			f.Pix[i] = byte(rng.Intn(3) * 40)
		default:
			f.Pix[i] = byte(rng.Intn(256))
		}
	}
	return f
}

// TestMotionSearchMatchesReference compares the in-place, early-exit search
// with the copy-every-candidate reference: the same vector and the same SAD
// for corner, edge and interior blocks, at every mab size and at radii 0 to
// 16, on content from all ties to none.
func TestMotionSearchMatchesReference(t *testing.T) {
	const w, h = 48, 32
	rng := rand.New(rand.NewSource(1))
	for _, content := range []string{"flat", "levels", "noise"} {
		ref := kernelFrame(rng, w, h, content)
		other := kernelFrame(rng, w, h, content)
		for _, size := range []int{2, 4, 8, 16} {
			src := make([]byte, size*size*BytesPerPixel)
			positions := [][2]int{
				{0, 0}, {w - size, 0}, {0, h - size}, {w - size, h - size}, // corners
				{0, h / 2}, {w - size, h / 2}, {w / 2, 0}, {w / 2, h - size}, // edges
				{rng.Intn(w - size + 1), rng.Intn(h - size + 1)},
			}
			for _, radius := range []int{0, 1, 2, 3, 7, 16} {
				for _, pos := range positions {
					x0, y0 := pos[0], pos[1]
					// The source is the reference displaced by a vector in
					// or out of the window, perturbed or not, or another
					// frame's block.
					switch rng.Intn(3) {
					case 0:
						ref.CopyBlock(x0+rng.Intn(9)-4, y0+rng.Intn(9)-4, size, src)
					case 1:
						ref.CopyBlock(x0+rng.Intn(5)-2, y0+rng.Intn(5)-2, size, src)
						for i := range src {
							src[i] += byte(rng.Intn(3) - 1)
						}
					default:
						other.CopyBlock(x0, y0, size, src)
					}
					mv, sad := MotionSearch(ref, x0, y0, size, radius, src)
					wantMV, wantSAD := refMotionSearch(ref, x0, y0, size, radius, src)
					if mv != wantMV || sad != wantSAD {
						t.Fatalf("%s size %d radius %d at (%d,%d): got %+v SAD %d, reference %+v SAD %d",
							content, size, radius, x0, y0, mv, sad, wantMV, wantSAD)
					}
				}
			}
		}
	}
}

// TestBestIntraModeMatchesReference compares the early-exit mode choice with
// the reference at every mab size, including blocks without a top or left
// neighbour and flat content where all three modes tie.
func TestBestIntraModeMatchesReference(t *testing.T) {
	const w, h = 48, 32
	rng := rand.New(rand.NewSource(2))
	for _, content := range []string{"flat", "levels", "noise"} {
		recon := kernelFrame(rng, w, h, content)
		for _, size := range []int{2, 4, 8, 16} {
			src := make([]byte, size*size*BytesPerPixel)
			pred := make([]byte, len(src))
			for trial := 0; trial < 20; trial++ {
				x0 := rng.Intn(w/size) * size
				y0 := rng.Intn(h/size) * size
				if trial < 3 {
					x0, y0 = trial%2*size, trial/2*size // (0,0), (size,0), (0,size)
				}
				recon.CopyBlock(x0+rng.Intn(3)-1, y0+rng.Intn(3)-1, size, src)
				mode, sad := BestIntraMode(recon, x0, y0, size, src, pred)
				wantMode, wantSAD := refBestIntraMode(recon, x0, y0, size, src)
				if mode != wantMode || sad != wantSAD {
					t.Fatalf("%s size %d at (%d,%d): got %v SAD %d, reference %v SAD %d",
						content, size, x0, y0, mode, sad, wantMode, wantSAD)
				}
			}
		}
	}
}

// TestTransformsMatchReference compares the transpose-free transforms with
// the reference on random blocks at every size, both directions.
func TestTransformsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{2, 4, 8, 16} {
		for trial := 0; trial < 200; trial++ {
			// Residual-sized values, then coefficient-sized ones.
			amp := 256
			if trial%2 == 1 {
				amp = 1 << 20
			}
			block := make([]int32, n*n)
			for i := range block {
				block[i] = int32(rng.Intn(2*amp) - amp)
			}
			for _, dir := range []struct {
				name      string
				got, want func([]int32, int)
			}{
				{"forward", ForwardTransform, refForwardTransform},
				{"inverse", InverseTransform, refInverseTransform},
			} {
				got := append([]int32(nil), block...)
				want := append([]int32(nil), block...)
				dir.got(got, n)
				dir.want(want, n)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("n=%d %s: coefficient %d = %d, reference %d", n, dir.name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestBitWriterMatchesReference drives the chunked writer and the
// bit-at-a-time reference with the same random calls, values near 2^32-1
// included, and compares the bit count after every call and the bytes at
// every tenth call and at the end.
func TestBitWriterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for seq := 0; seq < 200; seq++ {
		w, ref := NewBitWriter(), &refBitWriter{}
		for call := 0; call < 100; call++ {
			v := randBitValue(rng)
			var op string
			switch rng.Intn(4) {
			case 0:
				op = fmt.Sprintf("WriteBit(%d)", v&1)
				w.WriteBit(v)
				ref.WriteBit(v)
			case 1:
				n := uint(rng.Intn(33))
				op = fmt.Sprintf("WriteBits(%#x, %d)", v, n)
				w.WriteBits(v, n)
				ref.WriteBits(v, n)
			case 2:
				op = fmt.Sprintf("WriteUE(%d)", v)
				w.WriteUE(v)
				ref.WriteUE(v)
			default:
				op = fmt.Sprintf("WriteSE(%d)", int32(v))
				w.WriteSE(int32(v))
				ref.WriteSE(int32(v))
			}
			if w.Bits() != ref.bits {
				t.Fatalf("sequence %d call %d %s: %d bits, reference %d", seq, call, op, w.Bits(), ref.bits)
			}
			if call%10 == 9 && !bytes.Equal(w.Bytes(), ref.Bytes()) {
				t.Fatalf("sequence %d call %d %s: bytes differ from the reference", seq, call, op)
			}
		}
		if !bytes.Equal(w.Bytes(), ref.Bytes()) {
			t.Fatalf("sequence %d: bytes differ from the reference", seq)
		}
	}
}

// randBitValue draws small values, values near 2^32-1 and arbitrary ones.
func randBitValue(rng *rand.Rand) uint32 {
	switch rng.Intn(4) {
	case 0:
		return uint32(rng.Intn(64))
	case 1:
		return math.MaxUint32 - uint32(rng.Intn(4))
	case 2:
		return 1<<31 + uint32(rng.Intn(3)) - 1
	default:
		return rng.Uint32()
	}
}

// overflowingUE returns 32 zeros, a one and then 0x00000005: an Exp-Golomb
// code worth 2^32+4, which no 32-bit value encodes to.
func overflowingUE() []byte {
	w := NewBitWriter()
	w.WriteBits(0, 32)
	w.WriteBit(1)
	w.WriteBits(5, 32)
	return w.Bytes()
}

// TestReadUERejectsValuesAbove32Bits: a code worth 2^32 or more used to be
// truncated to its low 32 bits with a nil error.
func TestReadUERejectsValuesAbove32Bits(t *testing.T) {
	r := &refBitReader{buf: overflowingUE()}
	if v, err := r.ReadUE(); !errors.Is(err, ErrBitstream) {
		t.Fatalf("ReadUE of 2^32+4 = %d, %v; want ErrBitstream", v, err)
	}
	w := NewBitWriter()
	w.WriteUE(math.MaxUint32)
	r = &refBitReader{buf: w.Bytes()}
	if v, err := r.ReadUE(); err != nil || v != math.MaxUint32 {
		t.Fatalf("ReadUE of 2^32-1 = %d, %v", v, err)
	}
}

// TestDecoderRejectsWideMotionComponents: a motion component outside int8
// used to wrap (200 decoded as -56) and decode without error.
func TestDecoderRejectsWideMotionComponents(t *testing.T) {
	p := DefaultParams(16, 16)
	p.BFrames = 1
	for _, tc := range []struct {
		ft       FrameType
		mv       []int32
		rejected bool
	}{
		{FrameP, []int32{200, 0}, true},
		{FrameP, []int32{0, -129}, true},
		{FrameB, []int32{0, 0, 128, 0}, true},
		{FrameP, []int32{127, -128}, false},
		{FrameB, []int32{-128, 127, 0, 0}, false},
	} {
		// One I anchor for a P frame, anchors at display 0 and 2 for a B.
		anchors := []int{0}
		if tc.ft == FrameB {
			anchors = []int{0, 2}
		}
		dec, _ := NewDecoder(p)
		for _, idx := range anchors {
			if _, _, err := dec.Decode(handmadeFrame(p, FrameI, idx, nil)); err != nil {
				t.Fatal(err)
			}
		}
		_, _, err := dec.Decode(handmadeFrame(p, tc.ft, 1, tc.mv))
		if tc.rejected != errors.Is(err, ErrBitstream) || !tc.rejected && err != nil {
			t.Errorf("%v frame, first mab MV %v: err %v, want rejected=%v", tc.ft, tc.mv, err, tc.rejected)
		}
	}
}

// handmadeFrame writes a frame of type ft whose every mab has no residual:
// intra DC mabs for an I frame, otherwise inter mabs with zero vectors
// except the first, which carries mv.
func handmadeFrame(p Params, ft FrameType, idx int, mv []int32) *EncodedFrame {
	w := NewBitWriter()
	w.WriteUE(uint32(ft))
	w.WriteUE(uint32(idx))
	w.WriteUE(uint32(p.Quant))
	for i := 0; i < p.MabsPerFrame(); i++ {
		switch ft {
		case FrameI:
			w.WriteUE(uint32(MabI))
			w.WriteUE(uint32(IntraDC))
		default:
			mt, comps := MabP, 2
			if ft == FrameB {
				mt, comps = MabB, 4
			}
			w.WriteUE(uint32(mt))
			for c := 0; c < comps; c++ {
				v := int32(0)
				if i == 0 {
					v = mv[c]
				}
				w.WriteSE(v)
			}
		}
		for c := 0; c < 3; c++ {
			w.WriteBit(0) // end of block
		}
	}
	return &EncodedFrame{Type: ft, DisplayIndex: idx, Data: w.Bytes()}
}
