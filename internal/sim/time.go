// Package sim provides the simulated-time units shared by the SoC models:
// a picosecond-resolution virtual clock (Time), clock-cycle counts (Cycles),
// and clock frequencies (Hertz) that convert between the two.
//
// The models in this repository are transaction-level, not cycle-accurate:
// components compute the duration of each operation analytically, and the
// core.Runner frame-step machine advances the clock frame by frame.
package sim

import "fmt"

// Time is a point in virtual time, measured in picoseconds from simulation
// start. Picoseconds keep integer arithmetic exact for clock periods of both
// the DRAM (800 MHz -> 1250 ps) and the decoder (150/300 MHz).
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel placed safely beyond any reachable simulation time.
const Forever Time = 1 << 62

// Nanoseconds is a duration expressed in floating-point nanoseconds — the
// scale DRAM timing parameters and calibration constants are quoted in.
// It is a named unit type (see DESIGN.md "machlint v2: unit types"): the
// unitflow analyzer propagates its dimension through assignments and calls,
// and cross-dimension arithmetic fails to compile.
type Nanoseconds float64

// Time converts ns to the picosecond clock.
func (ns Nanoseconds) Time() Time { return FromNanoseconds(ns) }

// Cycles is a clock-cycle count: the decoder's cost model and frequency
// conversions are expressed in it. Cycles are dimensionless work units, not
// time — only Hertz.Cycles converts them to Time.
type Cycles int64

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds converts t to floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Nanoseconds converts t to floating-point nanoseconds.
func (t Time) Nanoseconds() Nanoseconds { return Nanoseconds(float64(t) / float64(Nanosecond)) }

// FromSeconds builds a Time from floating-point seconds.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMilliseconds builds a Time from floating-point milliseconds.
func FromMilliseconds(ms float64) Time { return Time(ms * float64(Millisecond)) }

// FromNanoseconds builds a Time from floating-point nanoseconds.
func FromNanoseconds(ns Nanoseconds) Time { return Time(float64(ns) * float64(Nanosecond)) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Milliseconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Hertz describes a clock frequency. The zero value is invalid.
type Hertz float64

const (
	Hz  Hertz = 1
	KHz Hertz = 1e3
	MHz Hertz = 1e6
	GHz Hertz = 1e9
)

// Cycles returns the duration of n clock cycles at frequency f.
func (f Hertz) Cycles(n Cycles) Time {
	if f <= 0 {
		return Forever
	}
	return Time(float64(n) * float64(Second) / float64(f))
}
