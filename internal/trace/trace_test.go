package trace

import (
	"strings"
	"testing"

	"mach/internal/codec"
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

func TestBuildRejectsCorruptStream(t *testing.T) {
	prof, _ := video.ProfileByKey("V1")
	st, err := video.Synthesize(prof, video.StreamConfig{Width: 32, Height: 32, NumFrames: 3, Seed: 1, MabSize: 4, Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	st.Encoded[1].Data = []byte{0xFF}
	if _, err := Build(prof.Key, prof.FPS, st.Params, st.Encoded); err == nil {
		t.Fatal("corrupt stream should fail to build")
	}
	_ = codec.FrameI
}
