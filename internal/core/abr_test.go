package core

import (
	"bytes"
	"testing"

	"mach/internal/abr"
	"mach/internal/delivery"
)

// abrConfig returns the test platform with a clean constrained link and the
// ABR controller enabled. sessions > 1 adds a contended shared bottleneck.
func abrConfig(policy string, bw float64, sessions int) Config {
	cfg := testConfig()
	cfg.Delivery = delivery.LTE()
	cfg.Delivery.BandwidthBps = bw
	cfg.Delivery.LossRate = 0
	if sessions > 1 {
		cfg.Delivery.Bottleneck = delivery.Bottleneck{Sessions: sessions, Seed: 3}
	}
	cfg.ABR = abr.Config{Enabled: true, Policy: policy, FixedRung: -1}
	return cfg
}

func TestABRNeedsDelivery(t *testing.T) {
	cfg := testConfig()
	cfg.ABR = abr.Config{Enabled: true, Policy: "buffer", FixedRung: -1}
	if cfg.Validate() == nil {
		t.Fatal("ABR without the delivery model accepted")
	}
	cfg = abrConfig("oracle", 1e6, 0)
	if cfg.Validate() == nil {
		t.Fatal("unknown ABR policy accepted")
	}
	if err := abrConfig("buffer", 1e6, 4).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestABROffLeavesResultClean guards the optional-stats contract: with ABR
// and contention off, the result must carry no trace of either model even
// when delivery itself is on.
func TestABROffLeavesResultClean(t *testing.T) {
	tr := testTrace(t, "V3", 24)
	cfg := testConfig()
	cfg.Delivery = delivery.LTE()
	res := mustRun(t, tr, GAB(DefaultBatch), cfg)
	if res.ABR != nil || res.Contention != nil {
		t.Fatalf("ABR/contention stats on a plain delivery run: %+v %+v", res.ABR, res.Contention)
	}
	c := res.Canonical()
	if c.ABR != nil || c.Contention != nil {
		t.Fatal("canonical projection carries disabled-model stats")
	}
}

// TestABRGracefulDegradation is the headline acceptance scenario: on a link
// too slow for the native stream, the adaptive policy must rebuffer strictly
// less than pinning the top rung, by trading quality (frames at lower rungs)
// for continuity.
func TestABRGracefulDegradation(t *testing.T) {
	tr := testTrace(t, "V3", 32)
	const bw = 2e5 // well under the stream's ~1.16 MB/s top-rung rate

	pinned := abrConfig("fixed", bw, 0)
	fixed := mustRun(t, tr, RaceToSleep(4), pinned)
	adaptive := mustRun(t, tr, RaceToSleep(4), abrConfig("buffer", bw, 0))

	if fixed.Rebuffers == 0 {
		t.Fatal("top-rung pin on a starved link never rebuffered (test premise broken)")
	}
	if adaptive.Rebuffers >= fixed.Rebuffers {
		t.Fatalf("adaptive rebuffers %d not below fixed-top %d", adaptive.Rebuffers, fixed.Rebuffers)
	}
	if adaptive.RebufferTime >= fixed.RebufferTime {
		t.Fatalf("adaptive rebuffer time %v not below fixed-top %v", adaptive.RebufferTime, fixed.RebufferTime)
	}
	// The continuity was bought with quality: some frames played below the
	// top rung, and the stats account every frame exactly once.
	if adaptive.ABR == nil {
		t.Fatal("adaptive run carries no ABR stats")
	}
	if top := len(adaptive.ABR.RungFrames) - 1; adaptive.ABR.MinRung == top {
		t.Fatal("adaptive run never left the top rung on a starved link")
	}
	var applied int64
	for _, n := range adaptive.ABR.RungFrames {
		applied += n
	}
	if applied != int64(adaptive.Frames) {
		t.Fatalf("rung histogram covers %d frames of %d", applied, adaptive.Frames)
	}
	// Fixed-top ABR is the pinned baseline: all frames at the top rung.
	if fixed.ABR.RungFrames[len(fixed.ABR.RungFrames)-1] != int64(fixed.Frames) {
		t.Fatalf("pinned run left the top rung: %v", fixed.ABR.RungFrames)
	}
}

// TestABRSwitchAppliesDownstream checks the rung actually reaches the
// decoder and the MACH engine: a run that switches rungs decodes cheaper and
// hashes coarser than the same link pinned at the top.
func TestABRSwitchAppliesDownstream(t *testing.T) {
	tr := testTrace(t, "V3", 32)
	adaptive := mustRun(t, tr, GAB(DefaultBatch), abrConfig("buffer", 3e5, 0))
	pinned := mustRun(t, tr, GAB(DefaultBatch), abrConfig("fixed", 3e5, 0))
	if adaptive.ABR.Switches == 0 {
		t.Fatal("buffer policy never switched at this bandwidth (probe drifted)")
	}
	if adaptive.Dec.ComputeCycles >= pinned.Dec.ComputeCycles {
		t.Fatalf("lower rungs did not cheapen decode: %d >= %d cycles",
			adaptive.Dec.ComputeCycles, pinned.Dec.ComputeCycles)
	}
	if adaptive.Mach.MatchRate() <= pinned.Mach.MatchRate() {
		t.Fatalf("coarser quantization did not raise MACH matches: %.3f <= %.3f",
			adaptive.Mach.MatchRate(), pinned.Mach.MatchRate())
	}
}

// TestContentionDeterminism pins the contended pipeline to its seed: same
// contention seed, bit-identical result; different seed, different schedule.
func TestContentionDeterminism(t *testing.T) {
	tr := testTrace(t, "V3", 24)
	cfg := abrConfig("buffer", 1e6, 4)
	a := canonicalJSON(t, mustRun(t, tr, GAB(DefaultBatch), cfg))
	b := canonicalJSON(t, mustRun(t, tr, GAB(DefaultBatch), cfg))
	if !bytes.Equal(a, b) {
		t.Fatal("same contention seed produced different results")
	}
	reseeded := cfg
	reseeded.Delivery.Bottleneck.Seed = 99
	c := canonicalJSON(t, mustRun(t, tr, GAB(DefaultBatch), reseeded))
	if bytes.Equal(a, c) {
		t.Fatal("different contention seeds produced identical results (hash unused?)")
	}
	// The contended run reports its link stats.
	r := mustRun(t, tr, GAB(DefaultBatch), cfg)
	if r.Contention == nil || r.Contention.Sessions != 4 || r.Contention.ContendedQuanta == 0 {
		t.Fatalf("contention stats: %+v", r.Contention)
	}
}

// TestResumeBitIdenticalABR extends the checkpoint cut grid to adaptive and
// contended configurations: resume must be bit-identical through an applied
// rung switch (cuts land on both sides of it) and under bottleneck
// contention. Each config is first checked to actually switch rungs, so the
// grid cannot silently stop covering the interesting boundary.
func TestResumeBitIdenticalABR(t *testing.T) {
	tr := testTrace(t, "V3", 32)
	n := len(tr.Frames)
	grid := []struct {
		name string
		cfg  Config
	}{
		{"buffer-clean", abrConfig("buffer", 3e5, 0)},
		{"buffer-contended", abrConfig("buffer", 1e6, 4)},
		{"throughput-contended", abrConfig("throughput", 8e6, 4)},
	}
	for _, g := range grid {
		t.Run(g.name, func(t *testing.T) {
			want := mustRun(t, tr, GAB(DefaultBatch), g.cfg)
			if want.ABR.Switches < 1 {
				t.Fatalf("config never switches rungs; the grid no longer crosses a switch: %+v", want.ABR)
			}
			wantJSON := canonicalJSON(t, want)
			for _, cut := range []int{0, 9, 24, 25, n - 1, n} {
				got := canonicalJSON(t, runResumed(t, tr, GAB(DefaultBatch), g.cfg, cut))
				if !bytes.Equal(got, wantJSON) {
					t.Errorf("cut at frame %d: resumed ABR run differs from uninterrupted run", cut)
				}
			}
		})
	}
}

// TestRestoreRejectsBadABRState runs the corrupt-payload cases on an ABR
// run; its stepped runner is past the rung switch, so it carries rung state
// that a restore must refuse to replay on top of.
func TestRestoreRejectsBadABRState(t *testing.T) {
	checkRestoreRejects(t, testTrace(t, "V3", 32), abrConfig("buffer", 3e5, 0), 26)
}
