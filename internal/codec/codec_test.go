package codec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsRoundTrip(t *testing.T) {
	w := NewBitWriter()
	w.WriteBits(0b1011, 4)
	w.WriteUE(0)
	w.WriteUE(7)
	w.WriteUE(100000)
	w.WriteSE(0)
	w.WriteSE(-5)
	w.WriteSE(12345)
	w.WriteBit(1)
	data := w.Bytes()

	r := &refBitReader{buf: data}
	if v, _ := r.ReadBits(4); v != 0b1011 {
		t.Fatalf("bits = %b", v)
	}
	for _, want := range []uint32{0, 7, 100000} {
		if v, err := r.ReadUE(); err != nil || v != want {
			t.Fatalf("ue = %d, %v want %d", v, err, want)
		}
	}
	for _, want := range []int32{0, -5, 12345} {
		if v, err := r.ReadSE(); err != nil || v != want {
			t.Fatalf("se = %d, %v want %d", v, err, want)
		}
	}
	if v, _ := r.ReadBit(); v != 1 {
		t.Fatal("final bit")
	}
}

func TestBitsProperty(t *testing.T) {
	f := func(vals []uint32, svals []int16) bool {
		w := NewBitWriter()
		for _, v := range vals {
			w.WriteUE(v % (1 << 20))
		}
		for _, v := range svals {
			w.WriteSE(int32(v))
		}
		r := &refBitReader{buf: w.Bytes()}
		for _, v := range vals {
			got, err := r.ReadUE()
			if err != nil || got != v%(1<<20) {
				return false
			}
		}
		for _, v := range svals {
			got, err := r.ReadSE()
			if err != nil || got != int32(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitReaderTruncation(t *testing.T) {
	r := &refBitReader{}
	if _, err := r.ReadBit(); err == nil {
		t.Fatal("empty read should fail")
	}
	if _, err := r.ReadUE(); err == nil {
		t.Fatal("empty ue should fail")
	}
}

func TestTransformRoundTripExact(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			block := make([]int32, n*n)
			orig := make([]int32, n*n)
			for i := range block {
				block[i] = int32(rng.Intn(512) - 256) // residual range
				orig[i] = block[i]
			}
			ForwardTransform(block, n)
			InverseTransform(block, n)
			for i := range block {
				if block[i] != orig[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
}

func TestTransformShapePanics(t *testing.T) {
	for _, n := range []int{0, 1, 3, 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("n=%d should panic", n)
				}
			}()
			ForwardTransform(make([]int32, 256), n)
		}()
	}
}

func TestQuantizeLosslessAtOne(t *testing.T) {
	block := []int32{5, -7, 0, 100}
	want := []int32{5, -7, 0, 100}
	if nz := Quantize(block, 1); nz != 3 {
		t.Fatalf("nonzero = %d", nz)
	}
	Dequantize(block, 1)
	for i := range block {
		if block[i] != want[i] {
			t.Fatalf("block = %v", block)
		}
	}
}

func TestQuantizeBoundsError(t *testing.T) {
	f := func(v int32, stepRaw uint8) bool {
		step := int32(stepRaw%63) + 1
		b := []int32{v % 100000}
		orig := b[0]
		Quantize(b, step)
		Dequantize(b, step)
		diff := b[0] - orig
		if diff < 0 {
			diff = -diff
		}
		return diff <= step/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZigZagIsPermutation(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		z := ZigZag(n)
		if len(z) != n*n {
			t.Fatalf("n=%d len=%d", n, len(z))
		}
		seen := make([]bool, n*n)
		for _, idx := range z {
			if idx < 0 || idx >= n*n || seen[idx] {
				t.Fatalf("n=%d invalid permutation", n)
			}
			seen[idx] = true
		}
		// Low frequency (0,0) first, highest (n-1,n-1) last.
		if z[0] != 0 || z[n*n-1] != n*n-1 {
			t.Fatalf("n=%d endpoints %d %d", n, z[0], z[n*n-1])
		}
	}
}

func TestCoeffsRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4
		block := make([]int32, n*n)
		for i := range block {
			if rng.Intn(3) == 0 {
				block[i] = int32(rng.Intn(100) - 50)
			}
		}
		w := NewBitWriter()
		EncodeCoeffs(w, block, n)
		got := make([]int32, n*n)
		r := &refBitReader{buf: w.Bytes()}
		if _, err := DecodeCoeffs(r, got, n); err != nil {
			return false
		}
		for i := range block {
			if got[i] != block[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBlockOps(t *testing.T) {
	fr := NewFrame(16, 8)
	blk := make([]byte, 4*4*3)
	for i := range blk {
		blk[i] = byte(i * 7)
	}
	fr.SetBlock(4, 4, 4, blk)
	got := make([]byte, len(blk))
	fr.CopyBlock(4, 4, 4, got)
	for i := range blk {
		if got[i] != blk[i] {
			t.Fatalf("block mismatch at %d", i)
		}
	}
	r, g, b := fr.At(4, 4)
	if r != blk[0] || g != blk[1] || b != blk[2] {
		t.Fatal("At mismatch")
	}
	fr.Set(0, 0, 9, 8, 7)
	if r, g, b := fr.At(0, 0); r != 9 || g != 8 || b != 7 {
		t.Fatal("Set/At mismatch")
	}
	// Edge clamping: copying from a negative origin replicates edge pixels.
	fr.CopyBlock(-2, -2, 4, got)
	r0, g0, b0 := fr.At(0, 0)
	if got[0] != r0 || got[1] != g0 || got[2] != b0 {
		t.Fatal("clamped copy mismatch")
	}
	if fr.NumMabs(4) != 8 {
		t.Fatalf("mabs = %d", fr.NumMabs(4))
	}
	if fr.SizeBytes() != 16*8*3 {
		t.Fatalf("size = %d", fr.SizeBytes())
	}
}

func TestPSNRAndSAD(t *testing.T) {
	a := NewFrame(8, 8)
	b := a.Clone()
	if !math.IsInf(PSNR(a, b), 1) {
		t.Fatal("identical PSNR should be +Inf")
	}
	b.Set(0, 0, 255, 0, 0)
	if p := PSNR(a, b); p <= 0 || math.IsInf(p, 1) {
		t.Fatalf("PSNR = %v", p)
	}
	x := []byte{10, 20, 30}
	y := []byte{13, 18, 30}
	if SAD(x, y) != 5 {
		t.Fatalf("SAD = %d", SAD(x, y))
	}
}

// gradientFrame builds a deterministic smooth frame so intra prediction works.
func gradientFrame(w, h int, phase int) *Frame {
	f := NewFrame(w, h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			f.Set(x, y, byte(x*3+phase), byte(y*5+phase), byte((x+y)*2))
		}
	}
	return f
}

func TestEncodeDecodeLossless(t *testing.T) {
	p := DefaultParams(32, 16)
	p.Quant = 1
	p.GOPLength = 4
	enc, err := NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		src := gradientFrame(32, 16, i*2)
		efs, err := enc.Push(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			got, work, err := dec.Decode(ef)
			if err != nil {
				t.Fatal(err)
			}
			if work.DisplayIndex != ef.DisplayIndex {
				t.Fatalf("display index %d vs %d", work.DisplayIndex, ef.DisplayIndex)
			}
			if !math.IsInf(PSNR(src, got), 1) {
				t.Fatalf("frame %d not lossless at quant=1 (PSNR %.1f)", i, PSNR(src, got))
			}
			if len(work.Mabs) != p.MabsPerFrame() {
				t.Fatalf("mab count %d", len(work.Mabs))
			}
		}
	}
}

func TestEncodeDecodeLossyQuality(t *testing.T) {
	p := DefaultParams(32, 32)
	p.Quant = 16
	enc, _ := NewEncoder(p)
	dec, _ := NewDecoder(p)
	var worst float64 = math.Inf(1)
	for i := 0; i < 6; i++ {
		src := gradientFrame(32, 32, i)
		efs, err := enc.Push(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			got, _, err := dec.Decode(ef)
			if err != nil {
				t.Fatal(err)
			}
			if p := PSNR(src, got); p < worst {
				worst = p
			}
		}
	}
	if worst < 30 {
		t.Fatalf("worst PSNR %.1f dB below 30", worst)
	}
}

func TestGOPStructure(t *testing.T) {
	p := DefaultParams(16, 16)
	p.GOPLength = 3
	enc, _ := NewEncoder(p)
	var types []FrameType
	for i := 0; i < 7; i++ {
		efs, err := enc.Push(gradientFrame(16, 16, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			types = append(types, ef.Type)
		}
	}
	want := []FrameType{FrameI, FrameP, FrameP, FrameI, FrameP, FrameP, FrameI}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("types = %v", types)
		}
	}
}

func TestBFramesDecodeOrder(t *testing.T) {
	p := DefaultParams(16, 16)
	p.BFrames = 1
	p.GOPLength = 8
	p.Quant = 1
	enc, _ := NewEncoder(p)
	dec, _ := NewDecoder(p)

	srcs := make(map[int]*Frame)
	var decoded []int
	push := func(f *Frame, idx int) {
		srcs[idx] = f
		efs, err := enc.Push(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			got, work, err := dec.Decode(ef)
			if err != nil {
				t.Fatalf("decode %d (%v): %v", ef.DisplayIndex, ef.Type, err)
			}
			decoded = append(decoded, ef.DisplayIndex)
			if !math.IsInf(PSNR(srcs[ef.DisplayIndex], got), 1) {
				t.Fatalf("frame %d (%v) not lossless", ef.DisplayIndex, ef.Type)
			}
			if ef.Type == FrameB && work.CountB == 0 && work.CountP == 0 {
				// A B frame of static content should use inter mabs.
				t.Logf("B frame %d decoded all-intra (acceptable for busy content)", ef.DisplayIndex)
			}
		}
	}
	for i := 0; i < 5; i++ {
		push(gradientFrame(16, 16, i), i)
	}
	efs, err := enc.Flush()
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range efs {
		if _, _, err := dec.Decode(ef); err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, ef.DisplayIndex)
	}
	// Display order 0..4 with anchors at 0,2,4: decode order 0,2,1,4,3.
	want := []int{0, 2, 1, 4, 3}
	if len(decoded) != len(want) {
		t.Fatalf("decoded = %v", decoded)
	}
	for i := range want {
		if decoded[i] != want[i] {
			t.Fatalf("decode order = %v want %v", decoded, want)
		}
	}
}

func TestStaticContentUsesPMabs(t *testing.T) {
	p := DefaultParams(32, 32)
	enc, _ := NewEncoder(p)
	dec, _ := NewDecoder(p)
	src := gradientFrame(32, 32, 0)
	for i := 0; i < 2; i++ {
		efs, err := enc.Push(src.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			_, work, err := dec.Decode(ef)
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				if work.CountP != p.MabsPerFrame() {
					t.Fatalf("static P frame should be all P mabs, got I=%d P=%d", work.CountI, work.CountP)
				}
				for _, mw := range work.Mabs {
					if mw.MV != (MotionVector{}) {
						t.Fatalf("static content should use zero MVs, got %+v", mw.MV)
					}
					if mw.Nonzero != 0 {
						t.Fatalf("static content should have zero residual")
					}
				}
			}
		}
	}
}

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{Width: 0, Height: 16, MabSize: 4, Quant: 1, GOPLength: 1},
		{Width: 17, Height: 16, MabSize: 4, Quant: 1, GOPLength: 1},
		{Width: 16, Height: 16, MabSize: 3, Quant: 1, GOPLength: 1},
		{Width: 16, Height: 16, MabSize: 4, Quant: 0, GOPLength: 1},
		{Width: 16, Height: 16, MabSize: 4, Quant: 1, GOPLength: 0},
		{Width: 16, Height: 16, MabSize: 4, Quant: 1, GOPLength: 1, BFrames: 9},
		{Width: 16, Height: 16, MabSize: 4, Quant: 1, GOPLength: 1, SearchRadius: 99},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Errorf("case %d should fail: %+v", i, p)
		}
	}
	if err := DefaultParams(64, 32).Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultParams(64, 32).MabBytes() != 48 {
		t.Fatal("mab bytes")
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	p := DefaultParams(16, 16)
	dec, _ := NewDecoder(p)
	_, _, err := dec.Decode(&EncodedFrame{Data: []byte{0xFF, 0x00}})
	if err == nil {
		t.Fatal("garbage should not decode")
	}
	// A P frame before any I frame must fail.
	w := NewBitWriter()
	w.WriteUE(uint32(FrameP))
	w.WriteUE(1)
	w.WriteUE(8)
	_, _, err = dec.Decode(&EncodedFrame{Data: w.Bytes()})
	if err == nil {
		t.Fatal("P without reference should fail")
	}
}

func TestMotionSearchFindsShift(t *testing.T) {
	ref := gradientFrame(32, 32, 0)
	// Build a source block equal to ref shifted by (+2, +1).
	src := make([]byte, 4*4*3)
	ref.CopyBlock(10+2, 10+1, 4, src)
	mv, sad := MotionSearch(ref, 10, 10, 4, 3, src)
	if sad != 0 || mv.DX != 2 || mv.DY != 1 {
		t.Fatalf("mv = %+v sad = %d", mv, sad)
	}
}

func TestIntraModes(t *testing.T) {
	fr := NewFrame(8, 8)
	// Paint the row above the block red and the column to its left blue.
	for x := 0; x < 8; x++ {
		fr.Set(x, 3, 200, 0, 0)
	}
	for y := 0; y < 8; y++ {
		fr.Set(3, y, 0, 0, 200)
	}
	dst := make([]byte, 4*4*3)
	IntraPredict(fr, 4, 4, 4, IntraVertical, dst)
	if dst[0] != 200 || dst[2] != 0 {
		t.Fatalf("vertical pred = %v", dst[:3])
	}
	IntraPredict(fr, 4, 4, 4, IntraHorizontal, dst)
	if dst[0] != 0 || dst[2] != 200 {
		t.Fatalf("horizontal pred = %v", dst[:3])
	}
	IntraPredict(fr, 4, 4, 4, IntraDC, dst)
	if dst[0] != 100 || dst[2] != 100 {
		t.Fatalf("dc pred = %v", dst[:3])
	}
	// No neighbours at the frame origin: mid-grey.
	IntraPredict(fr, 0, 0, 4, IntraDC, dst)
	if dst[0] != 128 {
		t.Fatalf("origin dc = %v", dst[0])
	}
}
