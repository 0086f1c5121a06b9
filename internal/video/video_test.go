package video

import (
	"testing"

	"mach/internal/codec"
)

func TestProfilesValid(t *testing.T) {
	ps := Profiles()
	if len(ps) != 16 {
		t.Fatalf("profiles = %d", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Key, err)
		}
		if seen[p.Key] {
			t.Errorf("duplicate key %s", p.Key)
		}
		seen[p.Key] = true
		if p.DetailFraction() < 0 {
			t.Errorf("%s: negative detail fraction", p.Key)
		}
		if p.TableFrames <= 0 {
			t.Errorf("%s: table frames %d", p.Key, p.TableFrames)
		}
	}
}

func TestProfileByKey(t *testing.T) {
	p, err := ProfileByKey("V8")
	if err != nil || p.Name != "007 Skyfall" {
		t.Fatalf("V8 lookup: %v %v", p, err)
	}
	if _, err := ProfileByKey("V99"); err == nil {
		t.Fatal("V99 should not exist")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	p, _ := ProfileByKey("V1")
	g1, err := NewGenerator(p, 64, 48, 7)
	if err != nil {
		t.Fatal(err)
	}
	g2, _ := NewGenerator(p, 64, 48, 7)
	for i := 0; i < 5; i++ {
		f1, f2 := g1.Frame(), g2.Frame()
		for j := range f1.Pix {
			if f1.Pix[j] != f2.Pix[j] {
				t.Fatalf("frame %d differs at byte %d", i, j)
			}
		}
	}
	// A different seed must differ somewhere.
	g3, _ := NewGenerator(p, 64, 48, 8)
	f1, f3 := g1.Frame(), g3.Frame()
	same := true
	for j := range f1.Pix {
		if f1.Pix[j] != f3.Pix[j] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical frames")
	}
}

func TestGeneratorRejectsBadSize(t *testing.T) {
	p, _ := ProfileByKey("V1")
	if _, err := NewGenerator(p, 63, 48, 1); err == nil {
		t.Fatal("width not multiple of 4 should fail")
	}
	if _, err := NewGenerator(p, 0, 48, 1); err == nil {
		t.Fatal("zero width should fail")
	}
}

func TestSceneCutChangesContent(t *testing.T) {
	p, _ := ProfileByKey("V5") // cuts every 36 frames
	p.SceneCutEvery = 3
	p.NumSprites = 0
	p.NoiseFraction = 0 // make frames static apart from cuts
	// No ramp either: the ramp band drifts every frame by design.
	p.FlatFraction, p.RampFraction, p.TextureFraction, p.DupFraction = 0.5, 0, 0.5, 0
	g, err := NewGenerator(p, 64, 48, 1)
	if err != nil {
		t.Fatal(err)
	}
	f0 := g.Frame()
	f1 := g.Frame()
	diff01 := 0
	for j := range f0.Pix {
		if f0.Pix[j] != f1.Pix[j] {
			diff01++
		}
	}
	if diff01 != 0 {
		t.Fatalf("static frames within a scene differ in %d bytes", diff01)
	}
	g.Frame()       // frame 2
	f3 := g.Frame() // frame 3: scene cut
	diff := 0
	for j := range f0.Pix {
		if f0.Pix[j] != f3.Pix[j] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("scene cut did not change content")
	}
}

func TestStaticProfileEncodesCheaply(t *testing.T) {
	// A mostly static, flat scene must produce far smaller P frames than
	// I frames — the variability the race-to-sleep analysis relies on.
	p, _ := ProfileByKey("V4")
	st, err := Synthesize(p, StreamConfig{Width: 64, Height: 48, NumFrames: 12, Seed: 2, MabSize: 4, Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	var iBytes, pBytes, iN, pN int
	for _, ef := range st.Encoded {
		switch ef.Type {
		case codec.FrameI:
			iBytes += ef.SizeBytes()
			iN++
		case codec.FrameP:
			pBytes += ef.SizeBytes()
			pN++
		}
	}
	if iN == 0 || pN == 0 {
		t.Fatalf("frame mix I=%d P=%d", iN, pN)
	}
	if float64(pBytes)/float64(pN) >= float64(iBytes)/float64(iN) {
		t.Fatalf("P frames (%d avg) should be smaller than I frames (%d avg)",
			pBytes/pN, iBytes/iN)
	}
}

func TestBFrameProfileProducesBFrames(t *testing.T) {
	p, _ := ProfileByKey("V5") // BFrames: 1
	st, err := Synthesize(p, StreamConfig{Width: 32, Height: 32, NumFrames: 9, Seed: 1, MabSize: 4, Quant: 8})
	if err != nil {
		t.Fatal(err)
	}
	hasB := false
	for _, ef := range st.Encoded {
		if ef.Type == codec.FrameB {
			hasB = true
		}
	}
	if !hasB {
		t.Fatal("V5 should emit B frames")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	p, _ := ProfileByKey("V1")
	if _, err := Synthesize(p, StreamConfig{Width: 64, Height: 48, NumFrames: 0}); err == nil {
		t.Fatal("zero frames should fail")
	}
}

func TestLayoutCoversFrame(t *testing.T) {
	for _, p := range Profiles() {
		g, err := NewGenerator(p, 320, 180, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Key, err)
		}
		l := g.layout()
		total := l.flatH + l.rampH + l.texH + l.noiseH + l.dupH + l.detailH
		if total != 180 {
			t.Errorf("%s: bands cover %d of 180", p.Key, total)
		}
		for _, h := range []int{l.flatH, l.rampH, l.texH, l.noiseH, l.dupH, l.detailH} {
			if h%4 != 0 || h < 0 {
				t.Errorf("%s: band height %d not a non-negative multiple of 4", p.Key, h)
			}
		}
	}
}
