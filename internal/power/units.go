package power

import (
	"mach/internal/energy"
	"mach/internal/sim"
)

// Watts is the canonical power quantity of every IP model (decoder P-state
// power, display scan power, DRAM background power, radio states). It is a
// named unit type (DESIGN.md "Determinism & lint invariants"): mixing it
// additively with energy or time fails to compile, and a power booked as
// energy through plain floats fails TestEnergyComponentsSumToTotal. The
// underlying float64 is unchanged, so wrapping existing fields is
// bit-exact.
type Watts float64

// Milliwatts is the scale Table 2 quotes most board-level numbers in. It is
// a distinct type from Watts so a 1000x scale slip cannot pass silently;
// cross the scale with the explicit conversions below.
type Milliwatts float64

// Watts converts the mW quantity to the canonical scale. IEEE-754 division
// is correctly rounded, so Milliwatts(120).Watts() is the same float64 as
// the literal 0.120 — DefaultConfig values expressed either way are
// bit-identical.
func (m Milliwatts) Watts() Watts { return Watts(float64(m) / 1000) }

// Milliwatts converts to the mW scale (reporting only).
func (w Watts) Milliwatts() Milliwatts { return Milliwatts(float64(w) * 1000) }

// Over integrates the power over a duration: the one legitimate product
// that turns power into energy. Every ledger accumulation in this package
// goes through it, and internal/core's TestEnergyComponentsSumToTotal holds
// each ledger to its state's power times its residency.
func (w Watts) Over(d sim.Time) energy.Joules {
	return energy.Joules(float64(w) * d.Seconds())
}
