// Idioms the unit checker must not flag: same-unit arithmetic,
// dimension-changing multiplication/division, explicit conversion calls,
// and identifiers that merely end in a suffix-like letter pair.
package units

func nsFromPs(ps int64) int64 { return ps / 1000 }

func Clean(busyPs, idlePs, busyNs, totalCycles int64, freqMHz float64) int64 {
	total := busyPs + idlePs // same unit
	perCycle := float64(total) / float64(totalCycles)
	_ = perCycle
	hz := freqMHz * 1e6 // scalar literal scaling
	_ = hz
	sum := nsFromPs(busyPs) + busyNs // a From helper's name carries its input's unit, not its result's
	_ = sum
	var Caps int64 // "Caps" must not parse as ending in unit "Ps"
	Caps = Caps + busyNs
	return Caps
}
