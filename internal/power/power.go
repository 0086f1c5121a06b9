// Package power models the IP power-state machine of the paper's Fig 2a: an
// active P-state (whose power level the owning IP determines from its DVFS
// point), a clock-gated idle ("short slack"), a sleep state S1, and a
// deep-sleep state S3, with the transition latencies and energies of the
// Medfield-class SoC the paper cites (S1<->P 0.8 ms, S3<->P 1.6 ms).
//
// The central policy, used by both the baseline per-frame decoder and the
// Race-to-Sleep batcher, is the break-even rule of §2.2: an IP only enters a
// sleep state when the available slack is long enough that the energy saved
// below idle power exceeds the transition energy.
package power

import (
	"fmt"

	"mach/internal/energy"
	"mach/internal/sim"
)

// State enumerates where slack time can be spent.
type State int

const (
	// Idle is in-P-state waiting: too little slack for any transition
	// ("short slack" in the paper's breakdowns).
	Idle State = iota
	// S1 is the light sleep state.
	S1
	// S3 is the deep sleep state.
	S3
)

func (s State) String() string {
	switch s {
	case Idle:
		return "idle"
	case S1:
		return "S1"
	case S3:
		return "S3"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Config holds the sleep-state parameters.
type Config struct {
	IdlePower Watts // in P-state but not processing (short slack)
	S1Power   Watts
	S3Power   Watts

	// Round-trip transition costs (enter + exit).
	S1Transition       sim.Time
	S3Transition       sim.Time
	S1TransitionEnergy energy.Joules // per round trip
	S3TransitionEnergy energy.Joules // per round trip
}

// DefaultConfig returns parameters matching the paper: 0.8/1.6 ms
// transitions; transition energies of 0.18/0.51 mJ (the 3.6%/10.2% of a 5 mJ
// frame reported for Regions III/IV in §2.2); sleep-state power levels chosen
// so S3 residency is nearly free relative to the 300 mW decoder.
func DefaultConfig() Config {
	return Config{
		IdlePower:          0.120,
		S1Power:            0.030,
		S3Power:            0.003,
		S1Transition:       sim.FromMilliseconds(0.8),
		S3Transition:       sim.FromMilliseconds(1.6),
		S1TransitionEnergy: 0.18e-3,
		S3TransitionEnergy: 0.51e-3,
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	if c.IdlePower <= c.S1Power || c.S1Power <= c.S3Power || c.S3Power < 0 {
		return fmt.Errorf("power: want idle > S1 > S3 >= 0, got %g/%g/%g", c.IdlePower, c.S1Power, c.S3Power)
	}
	if c.S1Transition <= 0 || c.S3Transition <= c.S1Transition {
		return fmt.Errorf("power: want 0 < S1 transition < S3 transition, got %v/%v", c.S1Transition, c.S3Transition)
	}
	if c.S1TransitionEnergy < 0 || c.S3TransitionEnergy < c.S1TransitionEnergy {
		return fmt.Errorf("power: want 0 <= S1 energy <= S3 energy, got %g/%g", c.S1TransitionEnergy, c.S3TransitionEnergy)
	}
	return nil
}

func (c Config) statePower(s State) Watts {
	switch s {
	case S1:
		return c.S1Power
	case S3:
		return c.S3Power
	default:
		return c.IdlePower
	}
}

func (c Config) transition(s State) (sim.Time, energy.Joules) {
	switch s {
	case S1:
		return c.S1Transition, c.S1TransitionEnergy
	case S3:
		return c.S3Transition, c.S3TransitionEnergy
	default:
		return 0, 0
	}
}

// BreakEven returns the minimum slack for which entering state s costs less
// energy than idling through it: the slack must cover the transition latency
// and the transition energy must be repaid by the power saved below idle.
func (c Config) BreakEven(s State) sim.Time {
	tr, etr := c.transition(s)
	if tr == 0 {
		return 0
	}
	ps := c.statePower(s)
	// Solve Etr + Ps*(t - tr) < Pidle * t  for t.
	denom := float64(c.IdlePower - ps)
	t := sim.FromSeconds((float64(etr) - float64(ps)*tr.Seconds()) / denom)
	if t < tr {
		t = tr
	}
	return t
}

// Choose picks the most energy-efficient state for a slack window.
func (c Config) Choose(slack sim.Time) State {
	if slack >= c.BreakEven(S3) {
		return S3
	}
	if slack >= c.BreakEven(S1) {
		return S1
	}
	return Idle
}

// Ledger accounts residency time and energy across slack windows. The zero
// value is unusable; construct with NewLedger.
type Ledger struct {
	cfg Config

	IdleTime       sim.Time
	S1Time         sim.Time
	S3Time         sim.Time
	TransitionTime sim.Time

	IdleEnergy  energy.Joules
	S1Energy    energy.Joules
	S3Energy    energy.Joules
	TransEnergy energy.Joules

	Transitions int64 // number of sleep round trips taken
}

// NewLedger returns a ledger using cfg; it panics on invalid configuration.
func NewLedger(cfg Config) *Ledger {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Ledger{cfg: cfg}
}

// Config returns the ledger's configuration.
func (l *Ledger) Config() Config { return l.cfg }

// Spend consumes a slack window in the most efficient state per Choose,
// accounting transition latency/energy, and returns the state used.
func (l *Ledger) Spend(slack sim.Time) State {
	s := l.cfg.Choose(slack)
	l.SpendIn(slack, s)
	return s
}

// SpendIn consumes a slack window in a caller-chosen state (used by ablation
// experiments that force suboptimal policies). Slack shorter than the
// transition time of s silently degrades to Idle, mirroring hardware that
// refuses the transition.
func (l *Ledger) SpendIn(slack sim.Time, s State) {
	if slack <= 0 {
		return
	}
	tr, etr := l.cfg.transition(s)
	if s == Idle || slack < tr {
		l.IdleTime += slack
		l.IdleEnergy += l.cfg.IdlePower.Over(slack)
		return
	}
	l.Transitions++
	l.TransitionTime += tr
	l.TransEnergy += etr
	rest := slack - tr
	switch s {
	case S1:
		l.S1Time += rest
		l.S1Energy += l.cfg.S1Power.Over(rest)
	case S3:
		l.S3Time += rest
		l.S3Energy += l.cfg.S3Power.Over(rest)
	}
}

// TransTime returns total time spent in transitions.
func (l *Ledger) TransTime() sim.Time { return l.TransitionTime }

// SleepTime returns total time in S1+S3.
func (l *Ledger) SleepTime() sim.Time { return l.S1Time + l.S3Time }

// TotalTime returns all accounted slack time.
func (l *Ledger) TotalTime() sim.Time {
	return l.IdleTime + l.S1Time + l.S3Time + l.TransitionTime
}

// TotalEnergy returns all accounted slack energy in joules.
func (l *Ledger) TotalEnergy() energy.Joules {
	return l.IdleEnergy + l.S1Energy + l.S3Energy + l.TransEnergy
}
