package core

import (
	"strings"
	"testing"

	"mach/internal/energy"
	"mach/internal/framebuf"
	"mach/internal/power"
	"mach/internal/sim"
	"mach/internal/trace"
	"mach/internal/video"
)

// testTrace builds a small but contentful trace once per test binary.
var traceCache = map[string]*trace.Trace{}

func testTrace(t testing.TB, key string, frames int) *trace.Trace {
	t.Helper()
	id := key + string(rune(frames))
	if tr, ok := traceCache[id]; ok {
		return tr
	}
	sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: frames, Seed: 5, MabSize: 4, Quant: 8}
	tr, err := BuildTrace(key, sc)
	if err != nil {
		t.Fatal(err)
	}
	traceCache[id] = tr
	return tr
}

// testConfig scales the reference-calibrated platform to the 160x96 test
// resolution so frame times stay in the calibrated regime.
func testConfig() Config {
	cfg := DefaultConfig()
	const f = 3600.0 / 960.0 // reference mabs / test mabs
	cfg.Decoder.CyclesPerMabBase = sim.Cycles(float64(cfg.Decoder.CyclesPerMabBase) * f)
	cfg.Decoder.CyclesPerBit *= f
	cfg.Decoder.CyclesPerCoef = sim.Cycles(float64(cfg.Decoder.CyclesPerCoef) * f)
	cfg.Decoder.CyclesIntra = sim.Cycles(float64(cfg.Decoder.CyclesIntra) * f)
	cfg.Decoder.CyclesMC = sim.Cycles(float64(cfg.Decoder.CyclesMC) * f)
	cfg.DRAM.EnergyActPre *= f
	cfg.DRAM.EnergyReadLine *= f
	cfg.DRAM.EnergyWriteLine *= f
	cfg.DRAM.RowOpenTimeout = sim.Time(float64(cfg.DRAM.RowOpenTimeout) * f)
	return cfg
}

func mustRun(t testing.TB, tr *trace.Trace, s Scheme, cfg Config) *Result {
	t.Helper()
	res, err := Run(tr, s, cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return res
}

func TestSchemeValidate(t *testing.T) {
	if err := Baseline().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Scheme{Name: "x", Batch: 0}
	if bad.Validate() == nil {
		t.Fatal("batch 0 should fail")
	}
	bad = Scheme{Name: "x", Batch: 1, DisplayOpt: true}
	if bad.Validate() == nil {
		t.Fatal("display opt without MACH should fail")
	}
	bad = Scheme{Name: "x", Batch: 4, BatchPattern: []int{5}}
	if bad.Validate() == nil {
		t.Fatal("pattern above max should fail")
	}
	for _, s := range StandardSchemes() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if MachGAB.String() != "gab" || MachOff.String() != "off" || MachMAB.String() != "mab" {
		t.Fatal("mach mode names")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.BaseBuffers = 1
	if bad.Validate() == nil {
		t.Fatal("1 buffer should fail")
	}
	bad = DefaultConfig()
	bad.DisplayLatencyFrames = 0
	if bad.Validate() == nil {
		t.Fatal("0 latency should fail")
	}
	// Every sub-config's rejection surfaces through Config.Validate.
	for _, c := range []struct {
		pkg string // the rejecting package's error prefix
		mut func(*Config)
	}{
		{"decoder", func(c *Config) { c.Decoder.FreqLow = 0 }},
		{"display", func(c *Config) { c.Display.FPS = 0 }},
		{"dram", func(c *Config) { c.DRAM.Channels = 0 }},
		{"power", func(c *Config) { c.Power.S3Power = -1 }},
		{"mach", func(c *Config) { c.Mach.NumMACHs = -1 }},
		{"soc", func(c *Config) { c.Traffic.BytesPerSecond = -1 }},
		{"delivery", func(c *Config) { c.Delivery.Enabled, c.Delivery.BandwidthBps = true, 0 }},
	} {
		bad = DefaultConfig()
		c.mut(&bad)
		if err := bad.Validate(); err == nil || !strings.HasPrefix(err.Error(), c.pkg+":") {
			t.Errorf("invalid %s config: Validate() = %v", c.pkg, err)
		}
	}
}

func TestRunBaselineSanity(t *testing.T) {
	tr := testTrace(t, "V1", 24)
	res := mustRun(t, tr, Baseline(), testConfig())
	if res.Frames != 24 {
		t.Fatalf("frames = %d", res.Frames)
	}
	if res.TotalEnergy() <= 0 {
		t.Fatal("energy must be positive")
	}
	if res.WallTime <= 0 {
		t.Fatal("wall time must be positive")
	}
	// The breakdown holds exactly the nine canonical components.
	if got := len(res.Energy.Keys()); got != len(energy.Components()) {
		t.Fatalf("components = %d", got)
	}
	// Per-frame samples cover every frame and the region classification
	// is a partition.
	if res.FrameTimes.Len() != 24 {
		t.Fatalf("samples = %d", res.FrameTimes.Len())
	}
	rc := res.Regions(sim.FromSeconds(1.0/60), power.DefaultConfig())
	if rc.I+rc.II+rc.III+rc.IV != 24 {
		t.Fatalf("regions don't partition: %+v", rc)
	}
	if res.String() == "" {
		t.Fatal("string report")
	}
}

func TestRunDeterminism(t *testing.T) {
	tr := testTrace(t, "V9", 24)
	cfg := testConfig()
	a := mustRun(t, tr, GAB(4), cfg)
	b := mustRun(t, tr, GAB(4), cfg)
	if a.TotalEnergy() != b.TotalEnergy() || a.Drops != b.Drops || a.Mem != b.Mem {
		t.Fatal("runs are not deterministic")
	}
}

func TestBatchingReducesTransitions(t *testing.T) {
	tr := testTrace(t, "V1", 32)
	cfg := testConfig()
	base := mustRun(t, tr, Baseline(), cfg)
	batched := mustRun(t, tr, Batching(8), cfg)
	if batched.Transitions >= base.Transitions {
		t.Fatalf("batching transitions %d should be < baseline %d", batched.Transitions, base.Transitions)
	}
	if batched.Energy.Get(energy.CompTransition) >= base.Energy.Get(energy.CompTransition) {
		t.Fatal("batching should cut transition energy")
	}
}

func TestRaceToSleepIncreasesS3AndEliminatesDrops(t *testing.T) {
	tr := testTrace(t, "V5", 32) // heavy workload with B frames
	cfg := testConfig()
	base := mustRun(t, tr, Baseline(), cfg)
	rts := mustRun(t, tr, RaceToSleep(8), cfg)
	if rts.S3Residency() <= base.S3Residency() {
		t.Fatalf("S3 residency: rts %.2f <= base %.2f", rts.S3Residency(), base.S3Residency())
	}
	if rts.Drops != 0 {
		t.Fatalf("race-to-sleep dropped %d frames", rts.Drops)
	}
}

func TestMachReducesMemoryAccesses(t *testing.T) {
	tr := testTrace(t, "V1", 24)
	cfg := testConfig()
	rts := mustRun(t, tr, RaceToSleep(8), cfg)
	gab := mustRun(t, tr, GAB(8), cfg)
	mab := mustRun(t, tr, MAB(8), cfg)
	if gab.Mem.Accesses() >= rts.Mem.Accesses() {
		t.Fatalf("GAB accesses %d should be < RTS %d", gab.Mem.Accesses(), rts.Mem.Accesses())
	}
	if gab.Mem.Accesses() >= mab.Mem.Accesses() {
		t.Fatalf("GAB accesses %d should be < MAB %d", gab.Mem.Accesses(), mab.Mem.Accesses())
	}
	if gab.Mach.MatchRate() <= mab.Mach.MatchRate() {
		t.Fatalf("gab match %.2f should beat mab %.2f", gab.Mach.MatchRate(), mab.Mach.MatchRate())
	}
	if gab.Mach.Savings() <= 0 {
		t.Fatal("gab should save bytes")
	}
	if gab.Energy.Get(energy.CompMachOverhead) <= 0 {
		t.Fatal("MACH overhead must be accounted")
	}
	if rts.Energy.Get(energy.CompMachOverhead) != 0 {
		t.Fatal("no MACH overhead without MACH")
	}
}

func TestBatchingGrowsBufferPool(t *testing.T) {
	tr := testTrace(t, "V4", 32)
	cfg := testConfig()
	base := mustRun(t, tr, Baseline(), cfg)
	batched := mustRun(t, tr, RaceToSleep(8), cfg)
	if batched.PoolHighWater <= base.PoolHighWater {
		t.Fatalf("batching pool %d should exceed baseline %d", batched.PoolHighWater, base.PoolHighWater)
	}
	gab := mustRun(t, tr, GAB(8), cfg)
	if gab.PoolHighWater <= batched.PoolHighWater {
		t.Fatalf("MACH retention pool %d should exceed plain batching %d", gab.PoolHighWater, batched.PoolHighWater)
	}
}

func TestBatchPattern(t *testing.T) {
	tr := testTrace(t, "V1", 24)
	cfg := testConfig()
	res := mustRun(t, tr, AdaptiveBatching(8, []int{2, 8, 4}), cfg)
	if res.Frames != 24 {
		t.Fatalf("frames = %d", res.Frames)
	}
	if res.Drops != 0 {
		t.Fatalf("adaptive batching dropped %d", res.Drops)
	}
}

func TestRunRejectsEmptyTrace(t *testing.T) {
	if _, err := Run(&trace.Trace{FPS: 60}, Baseline(), DefaultConfig()); err == nil {
		t.Fatal("empty trace should fail")
	}
}

func TestBFrameTraceDisplaysEveryFrame(t *testing.T) {
	tr := testTrace(t, "V5", 24) // B frames present
	cfg := testConfig()
	res := mustRun(t, tr, Batching(8), cfg)
	shown := res.Disp.FramesShown
	if shown+res.Drops < int64(res.Frames) {
		t.Fatalf("shown %d + drops %d < frames %d", shown, res.Drops, res.Frames)
	}
}

func TestLayoutKindFollowsScheme(t *testing.T) {
	tr := testTrace(t, "V1", 16)
	cfg := testConfig()
	gabNo := mustRun(t, tr, GABNoDisplayOpt(4), cfg)
	if gabNo.Disp.DigestRecords != 0 {
		t.Fatal("layout ii must not produce digest records")
	}
	gab := mustRun(t, tr, GAB(4), cfg)
	if gab.Disp.DigestRecords == 0 {
		t.Fatal("layout iii should produce digest records")
	}
	_ = framebuf.LayoutPtr
}

func TestNormalizedTo(t *testing.T) {
	tr := testTrace(t, "V1", 16)
	cfg := testConfig()
	base := mustRun(t, tr, Baseline(), cfg)
	if n := base.NormalizedTo(base); n != 1 {
		t.Fatalf("self-normalization = %v", n)
	}
	if base.EnergyPerFrame() <= 0 || base.DropRate() < 0 {
		t.Fatal("per-frame metrics")
	}
}

func TestWorkloadKeys(t *testing.T) {
	keys := WorkloadKeys()
	if len(keys) != 16 || keys[0] != "V1" || keys[15] != "V16" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestRunStandardSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("six schemes on one trace")
	}
	tr := testTrace(t, "V13", 24)
	results, err := RunStandard(tr, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d", len(results))
	}
	base := results[0]
	gab := results[5]
	if gab.TotalEnergy() >= base.TotalEnergy() {
		t.Fatalf("GAB %.2f should beat baseline %.2f on V13", gab.TotalEnergy(), base.TotalEnergy())
	}
}

func TestSlackPredictiveScheme(t *testing.T) {
	tr := testTrace(t, "V5", 32) // scene cuts make history mispredict
	cfg := testConfig()
	sp := mustRun(t, tr, SlackPredictive(), cfg)
	base := mustRun(t, tr, Baseline(), cfg)
	rts := mustRun(t, tr, RaceToSleep(8), cfg)
	// The predictor boosts late frames, so it drops no more than the
	// baseline; race-to-sleep still beats it on drops (zero).
	if sp.Drops > base.Drops {
		t.Fatalf("slack prediction drops %d > baseline %d", sp.Drops, base.Drops)
	}
	if rts.Drops != 0 {
		t.Fatalf("race-to-sleep dropped %d", rts.Drops)
	}
	// The predictor boosts only the frames it predicts would miss at the
	// low point, which on V5 is about a tenth of the decode time: its
	// decoder energy lies above decoding everything at the low point and
	// below the midpoint to the high one. A predictor that never races, or
	// races nearly every frame, fails here.
	busy := float64(sp.Dec.ActiveEnergy)
	lo := float64(cfg.Decoder.PowerLow.Over(sp.BusyTime))
	hi := float64(cfg.Decoder.PowerHigh.Over(sp.BusyTime))
	if share := (busy - lo) / (hi - lo); !(share > 1e-6 && share < 0.5) {
		t.Fatalf("slack prediction decodes %.3f of its busy time at the high point, want some but under half", share)
	}
	// Mutual exclusion with racing.
	bad := SlackPredictive()
	bad.Race = true
	if bad.Validate() == nil {
		t.Fatal("SlackPredict+Race should be rejected")
	}
}
