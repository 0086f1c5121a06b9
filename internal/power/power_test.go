package power

import (
	"testing"

	"mach/internal/sim"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	c := DefaultConfig()
	c.S1Power = c.IdlePower
	if c.Validate() == nil {
		t.Fatal("S1 >= idle should fail")
	}
	c = DefaultConfig()
	c.S3Transition = c.S1Transition
	if c.Validate() == nil {
		t.Fatal("S3 transition <= S1 should fail")
	}
	c = DefaultConfig()
	c.S1TransitionEnergy = c.S3TransitionEnergy + 1
	if c.Validate() == nil {
		t.Fatal("S1 energy > S3 should fail")
	}
}

func TestBreakEvenOrdering(t *testing.T) {
	c := DefaultConfig()
	beS1 := c.BreakEven(S1)
	beS3 := c.BreakEven(S3)
	if beS1 < c.S1Transition {
		t.Fatalf("S1 break-even %v below transition %v", beS1, c.S1Transition)
	}
	if beS3 <= beS1 {
		t.Fatalf("S3 break-even %v should exceed S1's %v", beS3, beS1)
	}
	if c.BreakEven(Idle) != 0 {
		t.Fatal("idle break-even should be zero")
	}
}

// A transition cheap enough that sleeping would pay off before the
// transition itself completes still cannot be taken in less slack than the
// transition lasts: BreakEven clamps the solved time to the transition
// time.
func TestBreakEvenCoversTransition(t *testing.T) {
	c := DefaultConfig()
	c.S1TransitionEnergy = 50e-6 // solved break-even 0.29 ms, under the 0.8 ms trip
	c.S3TransitionEnergy = 60e-6 // solved 0.47 ms, under the 1.6 ms trip
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, s := range []State{S1, S3} {
		tr, _ := c.transition(s)
		if be := c.BreakEven(s); be != tr {
			t.Errorf("%v: break-even %v, want the transition time %v", s, be, tr)
		}
	}
}

func TestBreakEvenIsActuallyBreakEven(t *testing.T) {
	// At exactly the break-even slack, sleeping must cost no more than
	// idling; just below, idling must win (checked at 99%).
	c := DefaultConfig()
	for _, s := range []State{S1, S3} {
		be := c.BreakEven(s)
		idleCost := float64(c.IdlePower) * be.Seconds()
		tr, etr := c.transition(s)
		sleepCost := float64(etr) + float64(c.statePower(s))*(be-tr).Seconds()
		if sleepCost > idleCost*(1+1e-9) {
			t.Errorf("%v: sleep %g > idle %g at break-even", s, sleepCost, idleCost)
		}
		below := sim.Time(float64(be) * 0.99)
		if below >= tr {
			idleCost = float64(c.IdlePower) * below.Seconds()
			sleepCost = float64(etr) + float64(c.statePower(s))*(below-tr).Seconds()
			if sleepCost < idleCost {
				t.Errorf("%v: sleeping should not win below break-even", s)
			}
		}
	}
}

func TestChoose(t *testing.T) {
	c := DefaultConfig()
	if got := c.Choose(sim.FromMilliseconds(0.5)); got != Idle {
		t.Fatalf("0.5ms -> %v", got)
	}
	if got := c.Choose(c.BreakEven(S1) + 1); got != S1 {
		t.Fatalf("just past S1 break-even -> %v", got)
	}
	if got := c.Choose(c.BreakEven(S3) + 1); got != S3 {
		t.Fatalf("just past S3 break-even -> %v", got)
	}
	if got := c.Choose(sim.Second); got != S3 {
		t.Fatalf("1s -> %v", got)
	}
}

func TestLedgerSpend(t *testing.T) {
	c := DefaultConfig()
	l := NewLedger(c)

	l.Spend(sim.FromMilliseconds(1)) // idle
	if l.IdleTime != sim.FromMilliseconds(1) || l.Transitions != 0 {
		t.Fatalf("idle spend: %+v", l)
	}
	wantIdleE := float64(c.IdlePower) * 0.001
	if d := float64(l.IdleEnergy) - wantIdleE; d > 1e-12 || d < -1e-12 {
		t.Fatalf("idle energy = %g want %g", l.IdleEnergy, wantIdleE)
	}

	slack := sim.FromMilliseconds(20) // deep in S3 territory
	if got := l.Spend(slack); got != S3 {
		t.Fatalf("20ms -> %v", got)
	}
	if l.Transitions != 1 {
		t.Fatalf("transitions = %d", l.Transitions)
	}
	if l.S3Time != slack-c.S3Transition {
		t.Fatalf("S3 time = %v", l.S3Time)
	}
	if l.TransEnergy != c.S3TransitionEnergy {
		t.Fatalf("transition energy = %g", l.TransEnergy)
	}
	if l.TotalTime() != sim.FromMilliseconds(21) {
		t.Fatalf("total time = %v", l.TotalTime())
	}
	if l.SleepTime() != l.S3Time {
		t.Fatalf("sleep time = %v", l.SleepTime())
	}
	if l.TotalEnergy() <= 0 {
		t.Fatal("total energy must be positive")
	}
}

func TestSpendInDegradesShortSlack(t *testing.T) {
	c := DefaultConfig()
	l := NewLedger(c)
	// Forcing S3 with slack shorter than the transition must fall back to
	// idle (hardware refuses the transition).
	l.SpendIn(sim.FromMilliseconds(1), S3)
	if l.Transitions != 0 || l.S3Time != 0 {
		t.Fatalf("short forced sleep should idle: %+v", l)
	}
	if l.IdleTime != sim.FromMilliseconds(1) {
		t.Fatalf("idle time = %v", l.IdleTime)
	}
	// Zero and negative slack are no-ops.
	l.SpendIn(0, S1)
	l.SpendIn(-5, S1)
	if l.TotalTime() != sim.FromMilliseconds(1) {
		t.Fatalf("total = %v", l.TotalTime())
	}
}

func TestSpendInForcedS1(t *testing.T) {
	c := DefaultConfig()
	l := NewLedger(c)
	slack := c.BreakEven(S3) + sim.Millisecond // optimal would be S3
	l.SpendIn(slack, S1)
	if l.S1Time != slack-c.S1Transition || l.S3Time != 0 {
		t.Fatalf("forced S1: %+v", l)
	}
}

func TestBatchingAmortizesTransitions(t *testing.T) {
	// The core race-to-sleep arithmetic: n short slacks pay n transitions
	// (or worse, never sleep), one accumulated slack pays one.
	c := DefaultConfig()
	per := NewLedger(c)
	slack := sim.FromMilliseconds(5) // each individually reaches S3
	n := 16
	for i := 0; i < n; i++ {
		per.Spend(slack)
	}
	batched := NewLedger(c)
	batched.Spend(sim.Time(n) * slack)
	if batched.TransEnergy >= per.TransEnergy {
		t.Fatalf("batched transitions %g should beat per-frame %g", batched.TransEnergy, per.TransEnergy)
	}
	if batched.TotalEnergy() >= per.TotalEnergy() {
		t.Fatalf("batched energy %g should beat per-frame %g", batched.TotalEnergy(), per.TotalEnergy())
	}
	if batched.Transitions != 1 || per.Transitions != int64(n) {
		t.Fatalf("transitions %d vs %d", batched.Transitions, per.Transitions)
	}
}

func TestStateString(t *testing.T) {
	if Idle.String() != "idle" || S1.String() != "S1" || S3.String() != "S3" {
		t.Fatal("state names")
	}
	if State(42).String() != "State(42)" {
		t.Fatal("unknown state name")
	}
}
