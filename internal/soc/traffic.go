// Package soc models the rest of the SoC's memory traffic — CPU, GPU,
// radios — as a background request stream into the shared DRAM. The paper's
// platform runs the full Android stack (GemDroid), so its video IPs always
// contend with other masters for banks and row buffers; §3.2 explicitly
// avoids slowing the memory clock "to not impact CPU performance". The
// generator reproduces that contention at a configurable bandwidth so its
// effect on racing and on MACH can be measured (ablation benchmarks).
package soc

import (
	"fmt"

	"mach/internal/dram"
	"mach/internal/hashes"
	"mach/internal/sim"
)

// BytesPerSecond is an average bandwidth. A named unit type (DESIGN.md
// "machlint v2: unit types"): bandwidths cannot be added to byte counts or
// durations without an explicit conversion.
type BytesPerSecond float64

// MHz is the megahertz scale board files and datasheets quote SoC clocks
// in. It is deliberately a distinct type from sim.Hertz: same dimension at
// a different scale is exactly the silent 1e6x slip the unit checks exist
// for, so crossing the scale requires the explicit conversion below.
type MHz float64

// Hertz converts the board-file scale to the engine's canonical frequency.
func (f MHz) Hertz() sim.Hertz { return sim.Hertz(float64(f) * 1e6) }

// TrafficConfig shapes the background stream.
type TrafficConfig struct {
	// BytesPerSecond is the average background bandwidth. Zero disables
	// the generator.
	BytesPerSecond BytesPerSecond
	// ReadFraction of accesses are reads (the rest are writes).
	ReadFraction float64
	// BurstLines is how many consecutive lines one request burst covers.
	BurstLines int
	// Region and Span bound the addresses touched.
	Region, Span uint64
	// SequentialFraction of bursts continue where the previous one ended
	// (streaming); the rest jump to a pseudo-random location (pointer
	// chasing).
	SequentialFraction float64
	// Seed makes the stream deterministic.
	Seed uint64
}

// DefaultTraffic returns a modest smartphone background load: 200 MB/s,
// 70% reads, half streaming.
func DefaultTraffic() TrafficConfig {
	return TrafficConfig{
		BytesPerSecond:     200e6,
		ReadFraction:       0.7,
		BurstLines:         8,
		Region:             0x8000_0000,
		Span:               64 << 20,
		SequentialFraction: 0.5,
		Seed:               99,
	}
}

// Validate reports malformed configurations.
func (c TrafficConfig) Validate() error {
	if c.BytesPerSecond < 0 {
		return fmt.Errorf("soc: negative bandwidth")
	}
	if c.BytesPerSecond == 0 {
		return nil
	}
	switch {
	case c.ReadFraction < 0 || c.ReadFraction > 1:
		return fmt.Errorf("soc: read fraction %g", c.ReadFraction)
	case c.BurstLines < 1:
		return fmt.Errorf("soc: burst lines %d", c.BurstLines)
	case c.Span == 0:
		return fmt.Errorf("soc: zero span")
	case c.SequentialFraction < 0 || c.SequentialFraction > 1:
		return fmt.Errorf("soc: sequential fraction %g", c.SequentialFraction)
	}
	return nil
}

// Generator emits the stream into a DRAM model across virtual-time windows.
type Generator struct {
	cfg    TrafficConfig
	rng    uint64
	cursor uint64 // next sequential address
	// Accumulated fractional bytes owed from previous windows.
	debt float64
}

// NewGenerator returns a generator, or an error for invalid configs.
func NewGenerator(cfg TrafficConfig) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Generator{cfg: cfg, rng: cfg.Seed ^ 0x9E3779B97F4A7C15, cursor: cfg.Region}, nil
}

// next draws the next output of the generator's SplitMix64 stream.
func (g *Generator) next() uint64 {
	z := hashes.SplitMix64(g.rng)
	g.rng += 0x9e3779b97f4a7c15
	return z
}

// Emit issues the background traffic covering the window [from, to) into
// mem: bursts spread uniformly across the window at the configured
// bandwidth. Fractional lines carry over to the next window so long runs
// hit the exact average bandwidth.
func (g *Generator) Emit(mem *dram.Memory, from, to sim.Time) {
	if g == nil || g.cfg.BytesPerSecond == 0 || to <= from {
		return
	}
	lineBytes := uint64(mem.Config().LineBytes)
	window := (to - from).Seconds()
	g.debt += float64(g.cfg.BytesPerSecond) * window
	linesOwed := int(g.debt / float64(lineBytes))
	if linesOwed <= 0 {
		return
	}
	g.debt -= float64(linesOwed) * float64(lineBytes)

	bursts := (linesOwed + g.cfg.BurstLines - 1) / g.cfg.BurstLines
	issued := 0
	for b := 0; b < bursts; b++ {
		at := from + sim.Time(int64(to-from)*int64(b)/int64(bursts))
		// Pick the burst start address.
		if float64(g.next()%1000)/1000.0 >= g.cfg.SequentialFraction {
			g.cursor = g.cfg.Region + (g.next()%g.cfg.Span)&^(lineBytes-1)
		}
		write := float64(g.next()%1000)/1000.0 >= g.cfg.ReadFraction
		for i := 0; i < g.cfg.BurstLines && issued < linesOwed; i++ {
			mem.Access(at, g.cursor, write)
			g.cursor += lineBytes
			if g.cursor >= g.cfg.Region+g.cfg.Span {
				g.cursor = g.cfg.Region
			}
			issued++
		}
	}
}
