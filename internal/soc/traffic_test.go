package soc

import (
	"testing"

	"mach/internal/dram"
	"mach/internal/sim"
)

func TestValidate(t *testing.T) {
	if err := DefaultTraffic().Validate(); err != nil {
		t.Fatal(err)
	}
	if (TrafficConfig{}).Validate() != nil {
		t.Fatal("zero config (disabled) must be valid")
	}
	bad := DefaultTraffic()
	bad.ReadFraction = 2
	if bad.Validate() == nil {
		t.Fatal("read fraction 2 should fail")
	}
	bad = DefaultTraffic()
	bad.Span = 0
	if bad.Validate() == nil {
		t.Fatal("zero span should fail")
	}
	bad = DefaultTraffic()
	bad.BytesPerSecond = -1
	if bad.Validate() == nil {
		t.Fatal("negative bandwidth should fail")
	}
}

func TestEmitBandwidth(t *testing.T) {
	mem := dram.New(dram.DefaultConfig())
	cfg := DefaultTraffic()
	cfg.BytesPerSecond = 64e6 // 1M lines/s
	g, err := NewGenerator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Emit 10 ms in 10 windows: expect ~10k lines total.
	for i := 0; i < 10; i++ {
		from := sim.FromMilliseconds(float64(i))
		g.Emit(mem, from, from+sim.Millisecond)
	}
	if lines := mem.Stats().Accesses(); lines < 9900 || lines > 10100 {
		t.Fatalf("lines = %d want ~10000", lines)
	}
	// Mixed reads and writes.
	if mem.Stats().Reads == 0 || mem.Stats().Writes == 0 {
		t.Fatalf("want both reads and writes: %+v", mem.Stats())
	}
}

func TestEmitDisabled(t *testing.T) {
	mem := dram.New(dram.DefaultConfig())
	g, err := NewGenerator(TrafficConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g.Emit(mem, 0, sim.Second)
	if mem.Stats().Accesses() != 0 {
		t.Fatal("disabled generator must be silent")
	}
	var nilGen *Generator
	nilGen.Emit(mem, 0, sim.Second) // nil receiver is a no-op
}

func TestEmitDeterminism(t *testing.T) {
	run := func() dram.Stats {
		mem := dram.New(dram.DefaultConfig())
		g, _ := NewGenerator(DefaultTraffic())
		g.Emit(mem, 0, sim.FromMilliseconds(5))
		return mem.Stats()
	}
	if run() != run() {
		t.Fatal("traffic must be deterministic")
	}
}

func TestFractionalCarryOver(t *testing.T) {
	mem := dram.New(dram.DefaultConfig())
	cfg := DefaultTraffic()
	cfg.BytesPerSecond = 64 // one line per second
	g, _ := NewGenerator(cfg)
	// 100 windows of 10ms: one line per 10 windows.
	for i := 0; i < 100; i++ {
		from := sim.Time(i) * sim.FromMilliseconds(10)
		g.Emit(mem, from, from+sim.FromMilliseconds(10))
	}
	if lines := mem.Stats().Accesses(); lines != 1 {
		t.Fatalf("lines = %d want 1 (fractional accrual)", lines)
	}
}

func TestAddressesStayInRegion(t *testing.T) {
	mem := dram.New(dram.DefaultConfig())
	cfg := DefaultTraffic()
	cfg.Span = 1 << 20
	g, _ := NewGenerator(cfg)
	g.Emit(mem, 0, sim.FromMilliseconds(2))
	if g.cursor < cfg.Region || g.cursor > cfg.Region+cfg.Span {
		t.Fatalf("cursor %#x escaped region", g.cursor)
	}
}
