package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mach/internal/codec"
	"mach/internal/hashes"
	"mach/internal/video"
)

func buildTestTrace(t testing.TB, key string, frames int) *Trace {
	t.Helper()
	prof, err := video.ProfileByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	st, err := video.Synthesize(prof, video.StreamConfig{
		Width: 64, Height: 48, NumFrames: frames, Seed: 11, MabSize: 4, Quant: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Build(prof.Key, prof.FPS, st.Params, st.Encoded)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildAndValidate(t *testing.T) {
	tr := buildTestTrace(t, "V1", 8)
	if tr.NumFrames() != 8 {
		t.Fatalf("frames = %d", tr.NumFrames())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.DecodedBytesPerFrame() != 64*48*3 {
		t.Fatalf("decoded bytes = %d", tr.DecodedBytesPerFrame())
	}
	if tr.FramePeriod() != 1.0/60 {
		t.Fatalf("period = %v", tr.FramePeriod())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	tr := buildTestTrace(t, "V1", 4)
	tr.Frames[2].DisplayIndex = tr.Frames[1].DisplayIndex
	if tr.Validate() == nil {
		t.Fatal("duplicate display index should fail validation")
	}
	tr = buildTestTrace(t, "V1", 4)
	tr.Frames[0].Work.Mabs = tr.Frames[0].Work.Mabs[:5]
	if tr.Validate() == nil {
		t.Fatal("truncated mab works should fail validation")
	}
	tr = buildTestTrace(t, "V1", 4)
	tr.Frames[0].Decoded = nil
	if tr.Validate() == nil {
		t.Fatal("missing pixels should fail validation")
	}
}

func TestSummarizeAndJSON(t *testing.T) {
	tr := buildTestTrace(t, "V4", 5)
	s := tr.Summarize()
	if s.Frames != 5 || s.Profile != "V4" {
		t.Fatalf("summary = %+v", s)
	}
	if s.MabsI+s.MabsP+s.MabsB != 5*tr.Params.MabsPerFrame() {
		t.Fatalf("mab totals = %+v", s)
	}
	if s.EncodedBytes <= 0 || s.AvgBitsPerFrame <= 0 {
		t.Fatalf("sizes = %+v", s)
	}
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "\"profile\": \"V4\"") {
		t.Fatalf("json = %s", sb.String())
	}
}

// TestBuildRejectsCorruptStream: Build takes each frame's pixels and work
// from the encoder, so a hand-made frame that carries the bitstream alone,
// or pixels without work, is an error naming the frame, not a panic or a
// trace with a hole in it.
func TestBuildRejectsCorruptStream(t *testing.T) {
	prof, _ := video.ProfileByKey("V1")
	st, err := video.Synthesize(prof, video.StreamConfig{Width: 32, Height: 32, NumFrames: 3, Seed: 1, MabSize: 4, Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	good := st.Encoded[1]
	for _, bad := range []*codec.EncodedFrame{
		{Type: good.Type, DisplayIndex: good.DisplayIndex, Data: good.Data},
		{Type: good.Type, DisplayIndex: good.DisplayIndex, Data: good.Data, Recon: good.Recon},
		{Type: good.Type, DisplayIndex: good.DisplayIndex, Data: good.Data, Work: good.Work},
	} {
		encoded := []*codec.EncodedFrame{st.Encoded[0], bad, st.Encoded[2]}
		_, err := Build(prof.Key, prof.FPS, st.Params, encoded)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("frame %d ", good.DisplayIndex)) {
			t.Errorf("frame with reconstruction %v and work %v: err %v, want one naming frame %d",
				bad.Recon != nil, bad.Work != nil, err, good.DisplayIndex)
		}
	}
	if _, err := Build(prof.Key, prof.FPS, codec.Params{}, st.Encoded); err == nil {
		t.Error("invalid params should fail to build")
	}
}

// TestDigestTableFillsOnce drives one digest table from several goroutines
// at once: every frame is filled exactly once, every caller reads the
// filled values, and each variant gets a table of its own.
func TestDigestTableFillsOnce(t *testing.T) {
	tr := buildTestTrace(t, "V1", 4)
	mabs := tr.Params.MabsPerFrame()
	v := Variant{Gradient: true, Digest: hashes.CRC32}
	co := v
	co.CoMach = true
	if tr.Digests(v) != tr.Digests(v) || tr.Digests(v) == tr.Digests(co) {
		t.Fatal("digest tables are not one per variant")
	}
	if _, aux := tr.Digests(v).Frame(0, func(d []uint32, _ []uint16) {}); aux != nil {
		t.Fatal("a table without CO-MACH carries aux hashes")
	}
	fills := make([]atomic.Int32, len(tr.Frames))
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range tr.Frames {
				digest, aux := tr.Digests(co).Frame(i, func(d []uint32, a []uint16) {
					fills[i].Add(1)
					for j := range d {
						d[j], a[j] = uint32(i*mabs+j), uint16(i+j)
					}
				})
				if len(digest) != mabs || len(aux) != mabs || digest[mabs-1] != uint32(i*mabs+mabs-1) || aux[0] != uint16(i) {
					t.Errorf("frame %d read %d digests, %d aux hashes, last %d", i, len(digest), len(aux), digest[len(digest)-1])
				}
			}
		}()
	}
	wg.Wait()
	for i := range fills {
		if n := fills[i].Load(); n != 1 {
			t.Errorf("frame %d filled %d times", i, n)
		}
	}
}
