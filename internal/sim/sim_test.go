package sim

import (
	"testing"
	"testing/quick"
)

func TestTimeConversions(t *testing.T) {
	if Second != 1e12*Picosecond {
		t.Fatalf("Second = %d ps", int64(Second))
	}
	if got := FromMilliseconds(16.6); got.Milliseconds() != 16.6 {
		t.Fatalf("round trip ms: %v", got.Milliseconds())
	}
	if got := FromSeconds(1.5); got != 1500*Millisecond {
		t.Fatalf("FromSeconds(1.5) = %v", got)
	}
	if FromNanoseconds(18).Nanoseconds() != 18 {
		t.Fatal("ns round trip")
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500 * Picosecond, "500ps"},
		{3 * Microsecond, "3.000us"},
		{16 * Millisecond, "16.000ms"},
		{2 * Second, "2.000000s"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%d.String() = %q want %q", int64(c.in), got, c.want)
		}
	}
}

func TestHertzPeriod(t *testing.T) {
	if p := (800 * MHz).Cycles(1); p != 1250*Picosecond {
		t.Fatalf("800MHz period = %v", p)
	}
	if p := (150 * MHz).Cycles(1); p < 6666*Picosecond || p > 6667*Picosecond {
		t.Fatalf("150MHz period = %d ps", int64(p))
	}
	if c := (300 * MHz).Cycles(300); c != Microsecond {
		t.Fatalf("300 cycles at 300MHz = %v", c)
	}
	if (Hertz(0)).Cycles(1) != Forever {
		t.Fatal("zero frequency should yield Forever")
	}
}

func TestHertzCyclesRoundTrip(t *testing.T) {
	f := func(cycles uint16) bool {
		n := Cycles(cycles)
		d := (200 * MHz).Cycles(n)
		back := Cycles(float64(d) * float64(200*MHz) / float64(Second))
		// Integer truncation may lose at most one cycle.
		return back == n || back == n-1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
