package energy

// Joules is the canonical energy quantity every ledger in the simulator
// accumulates and every Fig 11 component reports. It is a named unit type
// (DESIGN.md "Determinism & lint invariants"): adding a Joules value to a
// same-shaped quantity of another dimension — power, time, a picojoule
// count — fails to compile. Arithmetic that converts out to plain floats
// is held by the ledger identities of TestEnergyComponentsSumToTotal, which
// check every component against the residency it was booked from.
//
// The underlying representation is the same float64 the accounting always
// used, so wrapping a value is bit-exact: converting a field to Joules
// changes no golden result.
type Joules float64

// Picojoules is the fine-grained energy scale of the paper's rhetoric
// ("every picojoule lands in exactly one ledger") and of per-access SRAM
// quanta when they are quoted in pJ. It is deliberately a distinct type
// from Joules: same dimension at a different scale is exactly the silent
// 1e12x error the unit checks exist for, so crossing between them requires
// the explicit conversions below.
type Picojoules float64

// Joules converts an exact picojoule quantity to joules.
func (p Picojoules) Joules() Joules { return Joules(float64(p) * 1e-12) }

// Picojoules converts to the picojoule scale (reporting/debugging only —
// the ledgers accumulate Joules).
func (j Joules) Picojoules() Picojoules { return Picojoules(float64(j) * 1e12) }
