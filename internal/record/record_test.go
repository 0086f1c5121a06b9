package record

import (
	"math"
	"testing"

	"mach/internal/framebuf"
	"mach/internal/sim"
)

func TestValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.FPS = 0
	if bad.Validate() == nil {
		t.Fatal("fps 0 should fail")
	}
	bad = DefaultConfig()
	bad.EncoderPower = 0
	if bad.Validate() == nil {
		t.Fatal("zero encoder power should fail")
	}
}

func TestRecordingRuns(t *testing.T) {
	cfg := DefaultConfig()
	res, err := Run(cfg, "V4", 96, 64, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Frames != 8 {
		t.Fatalf("frames = %d", res.Frames)
	}
	if res.CameraLineWrites == 0 || res.EncoderLineReads == 0 || res.BitstreamLineWrites == 0 {
		t.Fatalf("traffic missing: %+v", res)
	}
	if res.TotalEnergy() <= 0 || res.WallTime <= 0 {
		t.Fatal("energy/time must be positive")
	}
	checkLedgers(t, cfg, res)
}

// checkLedgers requires the camera and encoder energy to equal the
// residency they are booked from, to a relative 1e-9: the camera streams
// for one capture period per frame, the encoder for its busy time.
func checkLedgers(t *testing.T, cfg Config, res *Result) {
	t.Helper()
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
			t.Errorf("%s is %.15g J, its residency says %.15g J", what, got, want)
		}
	}
	period := sim.Time(int64(sim.Second) / int64(cfg.FPS))
	near("camera energy", float64(res.CameraEnergy), float64(cfg.CameraPower.Over(period))*float64(res.Frames))
	near("encoder energy", float64(res.EncoderEnergy), float64(cfg.EncoderPower.Over(res.EncoderBusyTime)))
	if res.EncoderBusyTime <= 0 || res.EncoderBusyTime > res.WallTime {
		t.Errorf("encoder busy for %v of a %v run", res.EncoderBusyTime, res.WallTime)
	}
}

func TestMachReducesRecordingTraffic(t *testing.T) {
	on := DefaultConfig()
	off := DefaultConfig()
	off.UseMach = false

	a, err := Run(on, "V4", 96, 64, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(off, "V4", 96, 64, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.CameraLineWrites >= b.CameraLineWrites {
		t.Fatalf("MACH camera writes %d should be < raw %d", a.CameraLineWrites, b.CameraLineWrites)
	}
	if a.MemAccesses() >= b.MemAccesses() {
		t.Fatalf("MACH accesses %d should be < raw %d", a.MemAccesses(), b.MemAccesses())
	}
	if a.Mach.MatchRate() <= 0 {
		t.Fatal("MACH must find matches in camera content")
	}
	if b.Mach.MatchRate() != 0 {
		t.Fatal("raw mode must not match")
	}
	checkLedgers(t, on, a)
	checkLedgers(t, off, b)
}

func TestRecordingDeterminism(t *testing.T) {
	cfg := DefaultConfig()
	a, err := Run(cfg, "V9", 64, 64, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, "V9", 64, 64, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalEnergy() != b.TotalEnergy() || a.Mem != b.Mem {
		t.Fatal("recording runs must be deterministic")
	}
}

func TestRawModeUsesRawLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseMach = false
	res, err := Run(cfg, "V1", 64, 64, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Raw camera writes the full frame: 64*64*3 bytes / 64B = 192 lines/frame.
	wantPerFrame := int64(64 * 64 * 3 / 64)
	if got := res.CameraLineWrites / int64(res.Frames); got != wantPerFrame {
		t.Fatalf("raw writes/frame = %d want %d", got, wantPerFrame)
	}
	_ = framebuf.LayoutRaw
}

func TestUnknownProfileFails(t *testing.T) {
	if _, err := Run(DefaultConfig(), "V99", 64, 64, 2, 1); err == nil {
		t.Fatal("unknown profile should fail")
	}
}
