package codec

import (
	"bytes"
	"math"
	"testing"
)

// TestEncodeDecodeMabSizes runs the full codec loop at every supported mab
// size (the Fig 12c sweep depends on all of them decoding correctly).
func TestEncodeDecodeMabSizes(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		p := DefaultParams(32, 32)
		p.MabSize = n
		p.Quant = 1
		enc, err := NewEncoder(p)
		if err != nil {
			t.Fatalf("mab %d: %v", n, err)
		}
		dec, err := NewDecoder(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			src := gradientFrame(32, 32, i*3)
			efs, err := enc.Push(src)
			if err != nil {
				t.Fatalf("mab %d: %v", n, err)
			}
			for _, ef := range efs {
				got, work, err := dec.Decode(ef)
				if err != nil {
					t.Fatalf("mab %d: %v", n, err)
				}
				if !math.IsInf(PSNR(src, got), 1) {
					t.Fatalf("mab %d frame %d not lossless at quant=1", n, i)
				}
				if len(work.Mabs) != (32/n)*(32/n) {
					t.Fatalf("mab %d: %d works", n, len(work.Mabs))
				}
			}
		}
	}
}

// TestQuantizerQualityMonotonic: coarser quantizers must not improve PSNR
// and must not grow the bitstream.
func TestQuantizerQualityMonotonic(t *testing.T) {
	src := gradientFrame(64, 32, 1)
	prevPSNR := math.Inf(1)
	prevBits := int64(1 << 62)
	for _, q := range []int32{1, 4, 8, 16, 32} {
		p := DefaultParams(64, 32)
		p.Quant = q
		enc, _ := NewEncoder(p)
		dec, _ := NewDecoder(p)
		efs, err := enc.Push(src)
		if err != nil {
			t.Fatal(err)
		}
		got, work, err := dec.Decode(efs[0])
		if err != nil {
			t.Fatal(err)
		}
		ps := PSNR(src, got)
		if ps > prevPSNR+0.01 {
			t.Fatalf("quant %d: PSNR %.1f rose above %.1f", q, ps, prevPSNR)
		}
		// Bits shrink with coarser quant up to closed-loop prediction
		// noise (coarser reconstructions can worsen later predictions).
		if float64(work.TotalBits) > 1.15*float64(prevBits) {
			t.Fatalf("quant %d: bits %d grew well above %d", q, work.TotalBits, prevBits)
		}
		prevPSNR, prevBits = ps, work.TotalBits
	}
}

// TestEncoderFlushBFrames: B candidates still pending at stream end are
// flushed as P frames, and a decoder makes each its new anchor, so each must
// predict from the frame flushed before it. At quant 1 the codec is
// lossless: for every B-frame count and every tail length, every frame must
// decode to its source exactly and to the encoder's reconstruction.
func TestEncoderFlushBFrames(t *testing.T) {
	for b := 1; b <= 3; b++ {
		for pending := 0; pending <= b; pending++ {
			p := DefaultParams(16, 16)
			p.BFrames, p.Quant = b, 1
			enc, _ := NewEncoder(p)
			dec, _ := NewDecoder(p)
			// Anchors at 0 and b+1 with a full B run between them, then
			// pending frames that only the flush encodes.
			count := b + 2 + pending
			srcs := make([]*Frame, count)
			check := func(efs []*EncodedFrame, flushed bool) {
				for _, ef := range efs {
					if flushed && ef.Type != FrameP {
						t.Fatalf("BFrames %d, %d pending: flushed frame %d is %v, want P", b, pending, ef.DisplayIndex, ef.Type)
					}
					got, _, err := dec.Decode(ef)
					if err != nil {
						t.Fatalf("BFrames %d, %d pending: frame %d: %v", b, pending, ef.DisplayIndex, err)
					}
					if ps := PSNR(srcs[ef.DisplayIndex], got); !math.IsInf(ps, 1) {
						t.Errorf("BFrames %d, %d pending: frame %d (%v) decodes at %.1f dB, want lossless",
							b, pending, ef.DisplayIndex, ef.Type, ps)
					}
					if !bytes.Equal(got.Pix, ef.Recon.Pix) {
						t.Errorf("BFrames %d, %d pending: frame %d (%v) decodes unlike the encoder's reconstruction",
							b, pending, ef.DisplayIndex, ef.Type)
					}
				}
			}
			for i := range srcs {
				srcs[i] = gradientFrame(16, 16, i*3)
				efs, err := enc.Push(srcs[i])
				if err != nil {
					t.Fatal(err)
				}
				check(efs, false)
			}
			flushed, err := enc.Flush()
			if err != nil {
				t.Fatal(err)
			}
			if len(flushed) != pending {
				t.Fatalf("BFrames %d: flushed %d frames, want %d", b, len(flushed), pending)
			}
			check(flushed, true)
		}
	}
}

// TestBitstreamSizeTracksContent: noisy content must cost more bits than
// flat content — the property the decode-time model rides on.
func TestBitstreamSizeTracksContent(t *testing.T) {
	flat := NewFrame(64, 32)
	for i := range flat.Pix {
		flat.Pix[i] = 80
	}
	noisy := NewFrame(64, 32)
	seed := uint32(12345)
	for i := range noisy.Pix {
		seed = seed*1664525 + 1013904223
		noisy.Pix[i] = byte(seed >> 24)
	}
	size := func(f *Frame) int {
		p := DefaultParams(64, 32)
		enc, _ := NewEncoder(p)
		efs, err := enc.Push(f)
		if err != nil {
			t.Fatal(err)
		}
		return efs[0].SizeBytes()
	}
	sf, sn := size(flat), size(noisy)
	if sn < 8*sf {
		t.Fatalf("noisy frame %dB should dwarf flat %dB", sn, sf)
	}
}

// TestDecoderWorkCountsConsistent: per-frame work counts must sum to the
// mab count and agree with the frame type.
func TestDecoderWorkCountsConsistent(t *testing.T) {
	p := DefaultParams(32, 16)
	enc, _ := NewEncoder(p)
	dec, _ := NewDecoder(p)
	for i := 0; i < 6; i++ {
		efs, err := enc.Push(gradientFrame(32, 16, i))
		if err != nil {
			t.Fatal(err)
		}
		for _, ef := range efs {
			_, work, err := dec.Decode(ef)
			if err != nil {
				t.Fatal(err)
			}
			if work.CountI+work.CountP+work.CountB != len(work.Mabs) {
				t.Fatalf("counts %d+%d+%d != %d", work.CountI, work.CountP, work.CountB, len(work.Mabs))
			}
			if ef.Type == FrameI && (work.CountP != 0 || work.CountB != 0) {
				t.Fatal("I frames must be all-intra")
			}
			var bits int64
			for _, m := range work.Mabs {
				bits += int64(m.Bits)
			}
			if bits > work.TotalBits {
				t.Fatalf("mab bits %d exceed frame total %d", bits, work.TotalBits)
			}
		}
	}
}
