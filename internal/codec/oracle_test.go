package codec_test

import (
	"fmt"
	"reflect"
	"testing"

	"mach/internal/codec"
	"mach/internal/video"
)

// TestEncoderMatchesDecoderOracle is the round-trip oracle: traces take each
// frame's pixels and work from the encoder, so the test-only decoder must
// reproduce both from the bitstream alone, frame by frame. It covers every
// Table 1 profile, the mab sizes Fig 12c re-encodes V14 at, and one stream
// at the experiments' full frame size.
func TestEncoderMatchesDecoderOracle(t *testing.T) {
	small := video.StreamConfig{Width: 160, Height: 96, NumFrames: 24, Seed: 1, MabSize: 4, Quant: 8}
	type tc struct {
		key string
		cfg video.StreamConfig
	}
	var cases []tc
	for _, p := range video.Profiles() {
		cases = append(cases, tc{p.Key, small})
	}
	for _, n := range []int{2, 8, 16} {
		cfg := small
		cfg.MabSize = n
		cases = append(cases, tc{"V14", cfg})
	}
	full := video.StreamConfig{Width: 320, Height: 180, NumFrames: 48, Seed: 1, MabSize: 4, Quant: 8}
	cases = append(cases, tc{"V7", full})
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%dx%d/mab%d", c.key, c.cfg.Width, c.cfg.Height, c.cfg.MabSize), func(t *testing.T) {
			if testing.Short() && c.cfg.Width > small.Width {
				t.Skip("full-size stream")
			}
			prof, err := video.ProfileByKey(c.key)
			if err != nil {
				t.Fatal(err)
			}
			st, err := video.Synthesize(prof, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkRoundTrip(t, st.Params, st.Encoded)
		})
	}
}

// FuzzEncodeRoundTrip encodes a short run of small frames whose content
// moves and brightens, under parameters drawn from the input, and requires
// the oracle to reproduce every reconstruction and work record.
func FuzzEncodeRoundTrip(f *testing.F) {
	// mab size, quant, B frames, GOP, search radius, width and height in
	// mabs, frame count, motion x and y, brightening, then texture.
	f.Add([]byte{1, 0, 3, 7, 2, 3, 3, 3, 3, 2, 2, 9, 200, 31}) // a B-frames-3 tail of three frames
	f.Add([]byte{1, 7, 3, 7, 1, 3, 2, 6, 4, 1, 0, 77})         // a B run, then a tail of two
	f.Add([]byte{0, 3, 1, 4, 4, 7, 5, 6, 0, 4, 3, 5, 60})      // 2x2 mabs, one B between anchors
	f.Add([]byte{3, 15, 0, 7, 4, 1, 1, 5, 3, 3, 0})            // 16x16 mabs, IPPP
	f.Add([]byte{2, 31, 2, 0, 0, 3, 3, 4, 2, 2, 252, 8, 8})    // I anchors only, darkening
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, frames := roundTripInput(data)
		enc, err := codec.NewEncoder(p)
		if err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
		var encoded []*codec.EncodedFrame
		for _, fr := range frames {
			efs, err := enc.Push(fr)
			if err != nil {
				t.Fatal(err)
			}
			encoded = append(encoded, efs...)
		}
		efs, err := enc.Flush()
		if err != nil {
			t.Fatal(err)
		}
		encoded = append(encoded, efs...)
		if len(encoded) != len(frames) {
			t.Fatalf("%+v: %d frames encoded from %d", p, len(encoded), len(frames))
		}
		checkRoundTrip(t, p, encoded)
	})
}

// roundTripInput derives codec parameters and frames from fuzz input; bytes
// past the end read as zero. Frames are at most 32x32 and 8 long. Each one
// shifts a fixed pattern by a per-frame motion vector and adds a per-frame
// brightness step, so the motion search finds inter predictions.
func roundTripInput(data []byte) (codec.Params, []*codec.Frame) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	mab := 2 << (next() % 4)
	quant := int32(1 + next()%32)
	bFrames := next() % 4
	gop := 1 + next()%8
	radius := next() % 5
	w := mab * (1 + next()%(32/mab))
	h := mab * (1 + next()%(32/mab))
	count := 1 + next()%8
	dx, dy := next()%5-2, next()%5-2
	bright := int(int8(next())) % 8
	texture := data

	p := codec.DefaultParams(w, h)
	p.MabSize, p.Quant, p.BFrames, p.GOPLength, p.SearchRadius = mab, quant, bFrames, gop, radius
	pattern := func(x, y, c int) int {
		v := x*5 + y*3 + c*60
		if len(texture) > 0 {
			v += int(texture[((y&15)*16+(x&15)+c)%len(texture)])
		}
		return v & 255
	}
	frames := make([]*codec.Frame, count)
	for k := range frames {
		fr := codec.NewFrame(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				var px [3]byte
				for c := range px {
					px[c] = byte(min(max(pattern(x-k*dx, y-k*dy, c)+k*bright, 0), 255))
				}
				fr.Set(x, y, px[0], px[1], px[2])
			}
		}
		frames[k] = fr
	}
	return p, frames
}

// checkRoundTrip decodes encoded, in decode order, with the test-only
// decoder and requires every frame's pixels and work to equal what the
// encoder attached to it.
func checkRoundTrip(t *testing.T, p codec.Params, encoded []*codec.EncodedFrame) {
	t.Helper()
	dec, err := codec.NewDecoder(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range encoded {
		fr, work, err := dec.Decode(ef)
		if err != nil {
			t.Fatalf("frame %d (%v): %v", ef.DisplayIndex, ef.Type, err)
		}
		if ef.Recon == nil || ef.Work == nil {
			t.Fatalf("frame %d (%v): the encoder attached no reconstruction or work", ef.DisplayIndex, ef.Type)
		}
		if !reflect.DeepEqual(fr, ef.Recon) {
			t.Fatalf("frame %d (%v): the encoder's reconstruction differs from the decode", ef.DisplayIndex, ef.Type)
		}
		if reflect.DeepEqual(work, ef.Work) {
			continue
		}
		for i := range min(len(work.Mabs), len(ef.Work.Mabs)) {
			if work.Mabs[i] != ef.Work.Mabs[i] {
				t.Fatalf("frame %d (%v) mab %d: encoder work %+v, decoder %+v",
					ef.DisplayIndex, ef.Type, i, ef.Work.Mabs[i], work.Mabs[i])
			}
		}
		enc, got := *ef.Work, *work
		enc.Mabs, got.Mabs = nil, nil
		t.Fatalf("frame %d (%v): encoder work %+v over %d mabs, decoder %+v over %d",
			ef.DisplayIndex, ef.Type, enc, len(ef.Work.Mabs), got, len(work.Mabs))
	}
}
