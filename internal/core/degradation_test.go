package core

import (
	"math"
	"testing"

	"mach/internal/delivery"
)

// flakyConfig returns the test platform with the hostile delivery profile
// enabled at a fixed seed.
func flakyConfig(seed int64) Config {
	cfg := testConfig()
	cfg.Delivery = delivery.Flaky()
	cfg.Delivery.Seed = seed
	return cfg
}

// TestFirstFrameDropRepeatsNil forces every frame past its deadline — the
// very first drop re-renders with no previous layout, the path a
// delivery-late stream start exercises. The run must complete with all
// frames dropped and finite energy, not panic.
func TestFirstFrameDropRepeatsNil(t *testing.T) {
	tr := testTrace(t, "V1", 12)
	cfg := testConfig()
	cfg.Decoder.CyclesPerMabBase *= 1000 // nothing meets a deadline now
	res := mustRun(t, tr, Baseline(), cfg)
	if res.Drops != int64(len(tr.Frames)) {
		t.Fatalf("drops = %d, want all %d frames", res.Drops, len(tr.Frames))
	}
	if e := res.TotalEnergy(); !(e > 0) || math.IsInf(e, 0) || math.IsNaN(e) {
		t.Fatalf("degenerate energy %g", e)
	}
}

// TestZeroLengthBatchPattern checks the empty-pattern fallback: a scheme
// with BatchPattern []int{} must behave exactly like the plain Batch depth.
func TestZeroLengthBatchPattern(t *testing.T) {
	tr := testTrace(t, "V1", 24)
	cfg := testConfig()
	plain := RaceToSleep(4)
	patterned := plain
	patterned.BatchPattern = []int{}
	a := mustRun(t, tr, plain, cfg)
	b := mustRun(t, tr, patterned, cfg)
	if math.Float64bits(a.TotalEnergy()) != math.Float64bits(b.TotalEnergy()) ||
		a.Drops != b.Drops || a.WallTime != b.WallTime {
		t.Fatalf("empty BatchPattern diverges from Batch: %v/%v vs %v/%v",
			a.TotalEnergy(), a.Drops, b.TotalEnergy(), b.Drops)
	}
	// A zero entry inside a pattern must be rejected up front (it could
	// never make progress), not loop forever.
	bad := plain
	bad.BatchPattern = []int{2, 0}
	if _, err := Run(tr, bad, cfg); err == nil {
		t.Fatal("zero batch-pattern entry accepted")
	}
}

// TestRebufferAtEndOfStream starves the stream's tail through the delivery
// model: one-frame segments over a link that needs about three times the
// stream's duration, so the last frame arrives far past the nominal end of
// playback. The wall clock must stretch to cover the late decode (tail slack
// accounted, not silently dropped) and the rebuffer time must reflect the
// wait.
func TestRebufferAtEndOfStream(t *testing.T) {
	tr := testTrace(t, "V1", 12)
	n := len(tr.Frames)
	sizes := make([]int, n)
	total := 0
	for i := range tr.Frames {
		sizes[i] = tr.Frames[i].EncodedBytes
		total += sizes[i]
	}
	cfg := testConfig()
	cfg.Delivery = delivery.LTE()
	cfg.Delivery.LossRate = 0
	cfg.Delivery.Jitter = 0
	cfg.Delivery.SegmentFrames = 1
	duration := float64(n) / float64(tr.FPS)
	cfg.Delivery.BandwidthBps = float64(total) / (3 * duration)
	sched, err := delivery.Plan(cfg.Delivery, sizes, tr.FPS)
	if err != nil {
		t.Fatal(err)
	}
	late := sched.Avail[n-1]

	res := mustRun(t, tr, RaceToSleep(4), cfg)
	if res.Rebuffers == 0 || res.RebufferTime == 0 {
		t.Fatalf("late tail caused no rebuffering: %+v", res.Rebuffers)
	}
	if res.WallTime < late {
		t.Fatalf("wall time %v ends before the last frame arrived at %v", res.WallTime, late)
	}
	if res.Drops == 0 {
		t.Fatal("a starved tail should miss its deadlines")
	}
}

// TestDeliveryDeterminism runs the fault-injected pipeline twice with the
// same network seed and demands bit-identical results, then flips the seed
// and demands a different schedule (the rng must actually be in the loop).
func TestDeliveryDeterminism(t *testing.T) {
	tr := testTrace(t, "V3", 24)
	a := mustRun(t, tr, GAB(DefaultBatch), flakyConfig(7))
	b := mustRun(t, tr, GAB(DefaultBatch), flakyConfig(7))
	if math.Float64bits(a.TotalEnergy()) != math.Float64bits(b.TotalEnergy()) {
		t.Fatalf("same net seed, different energy: %x vs %x",
			math.Float64bits(a.TotalEnergy()), math.Float64bits(b.TotalEnergy()))
	}
	if a.Rebuffers != b.Rebuffers || a.RebufferTime != b.RebufferTime ||
		a.StartupDelay != b.StartupDelay || a.Net != b.Net || a.Radio != b.Radio ||
		a.Drops != b.Drops || a.BatchShrinks != b.BatchShrinks {
		t.Fatalf("same net seed, different delivery behaviour:\n%+v\n%+v", a.Net, b.Net)
	}
	if a.String() != b.String() {
		t.Fatal("same net seed, different report")
	}

	c := mustRun(t, tr, GAB(DefaultBatch), flakyConfig(8))
	if a.Net == c.Net && a.RebufferTime == c.RebufferTime &&
		math.Float64bits(a.TotalEnergy()) == math.Float64bits(c.TotalEnergy()) {
		t.Fatal("different net seeds produced identical runs (rng unused?)")
	}
}

// TestDeliveryDisabledBitIdentical guards the perfect-network invariant: a
// default (delivery-off) run must be unaffected by the presence of the
// delivery code paths — no rebuffers, no startup delay, no radio energy.
func TestDeliveryDisabledBitIdentical(t *testing.T) {
	tr := testTrace(t, "V1", 24)
	res := mustRun(t, tr, GAB(DefaultBatch), testConfig())
	if res.Rebuffers != 0 || res.RebufferTime != 0 || res.StartupDelay != 0 ||
		res.BatchShrinks != 0 || res.Net.Segments != 0 || res.Radio.TotalEnergy() != 0 {
		t.Fatalf("delivery-off run shows delivery side effects: %+v", res.Net)
	}
}

// TestDeliveryGracefulDegradation is the headline robustness scenario: a
// hostile link with injected stalls and certain loss on some segments. The
// run must complete, rebuffer, retry, and keep playing (drops/repeats), and
// the radio ledger must carry the burst energy.
func TestDeliveryGracefulDegradation(t *testing.T) {
	tr := testTrace(t, "V1", 24)
	cfg := flakyConfig(2)
	cfg.Delivery.LossRate = 0.5  // force visible retry traffic
	cfg.Delivery.StallRate = 0.9 // and near-certain stall injection
	res := mustRun(t, tr, RaceToSleep(4), cfg)

	if res.StartupDelay == 0 {
		t.Fatal("hostile link with zero startup delay")
	}
	if res.Net.Retries == 0 {
		t.Fatal("50% loss produced no retries (seed-sensitive: pick another)")
	}
	if res.Net.Stalls == 0 {
		t.Fatal("90% stall rate produced no stalls (seed-sensitive: pick another)")
	}
	if res.Radio.TotalEnergy() <= 0 {
		t.Fatal("no radio energy accounted")
	}
	if got := res.Energy.Get("radio"); math.Abs(got-float64(res.Radio.TotalEnergy())) > 1e-12 {
		t.Fatalf("breakdown radio %g != ledger %g", got, res.Radio.TotalEnergy())
	}
}
