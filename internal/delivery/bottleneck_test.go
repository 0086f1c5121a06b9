package delivery

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"mach/internal/abr"
	"mach/internal/sim"
)

func TestBottleneckValidate(t *testing.T) {
	mut := func(f func(*Bottleneck)) Bottleneck {
		b := Bottleneck{Sessions: 4}
		f(&b)
		return b
	}
	bad := map[string]Bottleneck{
		"sessions over cap": mut(func(b *Bottleneck) { b.Sessions = MaxBottleneckSessions + 1 }),
		"weight too small":  mut(func(b *Bottleneck) { b.Weight = 0.01 }),
		"weight too large":  mut(func(b *Bottleneck) { b.Weight = 17 }),
		"weight nan":        mut(func(b *Bottleneck) { b.Weight = nan() }),
		"negative prob":     mut(func(b *Bottleneck) { b.ActiveProb = -0.1 }),
		"prob above one":    mut(func(b *Bottleneck) { b.ActiveProb = 1.1 }),
		"prob nan":          mut(func(b *Bottleneck) { b.ActiveProb = nan() }),
		"quantum too short": mut(func(b *Bottleneck) { b.Quantum = sim.Microsecond }),
		"quantum too long":  mut(func(b *Bottleneck) { b.Quantum = 2 * sim.Second }),
	}
	for name, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("%s: invalid bottleneck accepted", name)
		}
	}
	// Disabled (0 or 1 sessions) is always valid, whatever else it holds.
	for _, s := range []int{0, 1} {
		b := Bottleneck{Sessions: s, Weight: -99, ActiveProb: 42, Quantum: -1}
		if err := b.Validate(); err != nil {
			t.Errorf("%d-session bottleneck rejected: %v", s, err)
		}
		if b.Enabled() {
			t.Errorf("%d-session bottleneck reports enabled", s)
		}
	}
	if err := (Bottleneck{Sessions: 4}).Validate(); err != nil {
		t.Errorf("defaulted 4-session bottleneck rejected: %v", err)
	}
}

// TestFairShareProperties pins the allocation invariants over seeded random
// instances: no session exceeds its demand, nothing is negative, the total
// never exceeds capacity (conservation), and when demand is unmet the link
// is fully used (work conservation).
func TestFairShareProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		demands := make([]float64, n)
		weights := make([]float64, n)
		var total float64
		for i := range demands {
			demands[i] = float64(rng.Intn(2000)) // integer-valued, zeros included
			weights[i] = float64(1 + rng.Intn(16))
			total += demands[i]
		}
		capacity := float64(1 + rng.Intn(4000))

		alloc := FairShare(capacity, demands, weights)
		if len(alloc) != n {
			t.Fatalf("trial %d: alloc length %d, want %d", trial, len(alloc), n)
		}
		eps := 1e-9 * (capacity + total + 1)
		var sum float64
		for i, a := range alloc {
			if a < 0 {
				t.Fatalf("trial %d: alloc[%d] = %g negative", trial, i, a)
			}
			if a > demands[i]+eps {
				t.Fatalf("trial %d: alloc[%d] = %g exceeds demand %g", trial, i, a, demands[i])
			}
			sum += a
		}
		if sum > capacity+eps {
			t.Fatalf("trial %d: total allocation %g exceeds capacity %g", trial, sum, capacity)
		}
		if want := math.Min(capacity, total); math.Abs(sum-want) > eps {
			t.Fatalf("trial %d: not work-conserving: allocated %g, want min(cap,demand) = %g", trial, sum, want)
		}
	}
}

// TestFairSharePermutation pins session-permutation determinism: the
// allocation is a function of the (demand, weight) multiset, so permuting
// the sessions permutes the allocations with them.
func TestFairSharePermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		demands := make([]float64, n)
		weights := make([]float64, n)
		for i := range demands {
			demands[i] = float64(rng.Intn(1000))
			weights[i] = float64(1 + rng.Intn(8))
		}
		capacity := float64(1 + rng.Intn(3000))
		base := FairShare(capacity, demands, weights)

		perm := rng.Perm(n)
		pd := make([]float64, n)
		pw := make([]float64, n)
		for i, p := range perm {
			pd[i] = demands[p]
			pw[i] = weights[p]
		}
		got := FairShare(capacity, pd, pw)
		eps := 1e-9 * (capacity + 1)
		for i, p := range perm {
			if math.Abs(got[i]-base[p]) > eps {
				t.Fatalf("trial %d: permuted alloc[%d] = %g, want base[%d] = %g",
					trial, i, got[i], p, base[p])
			}
		}
	}
}

func TestFairShareEdgesAndPanics(t *testing.T) {
	if got := FairShare(0, []float64{5}, []float64{1}); got[0] != 0 {
		t.Errorf("zero capacity allocated %g", got[0])
	}
	if got := FairShare(100, nil, nil); len(got) != 0 {
		t.Errorf("empty instance allocated %v", got)
	}
	if got := FairShare(100, []float64{0, 0}, []float64{1, 1}); got[0] != 0 || got[1] != 0 {
		t.Errorf("zero demands allocated %v", got)
	}
	// Satisfiable demands are met exactly.
	got := FairShare(100, []float64{10, 20}, []float64{1, 1})
	if got[0] != 10 || got[1] != 20 {
		t.Errorf("satisfiable demands allocated %v, want [10 20]", got)
	}
	// A heavier session gets proportionally more of a saturated link.
	got = FairShare(90, []float64{1000, 1000}, []float64{2, 1})
	if math.Abs(got[0]-60) > 1e-9 || math.Abs(got[1]-30) > 1e-9 {
		t.Errorf("weighted split = %v, want [60 30]", got)
	}

	panics := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	panics("length mismatch", func() { FairShare(1, []float64{1}, []float64{1, 2}) })
	panics("negative demand", func() { FairShare(1, []float64{-1}, []float64{1}) })
	panics("zero weight", func() { FairShare(1, []float64{1}, []float64{0}) })
	panics("nan demand", func() { FairShare(1, []float64{nan()}, []float64{1}) })
}

// TestShareAtMatchesFairShare pins the planner's fast path to the general
// allocator: with every session backlogged, the closed-form share the quantum
// walk uses is exactly our index's weighted max-min fair share.
func TestShareAtMatchesFairShare(t *testing.T) {
	b := Bottleneck{Sessions: 8, Weight: 2, ActiveProb: 0.6, Seed: 3}.normalize()
	bw := 8e6
	backlog := bw * 100 // far more demand than one quantum's capacity
	for q := int64(0); q < 200; q++ {
		share, contended := b.shareAt(bw, q)
		nAct := b.activeSessions(q)
		if (nAct > 0) != contended {
			t.Fatalf("quantum %d: contended=%v with %d active sessions", q, contended, nAct)
		}
		demands := make([]float64, nAct+1)
		weights := make([]float64, nAct+1)
		demands[0], weights[0] = backlog, b.Weight
		for i := 1; i <= nAct; i++ {
			demands[i], weights[i] = backlog, 1
		}
		want := FairShare(bw, demands, weights)[0]
		if math.Abs(share-want)/bw > 1e-12 {
			t.Fatalf("quantum %d: shareAt = %g, FairShare = %g (%d active)", q, share, want, nAct)
		}
	}
}

func TestActiveSessions(t *testing.T) {
	b := Bottleneck{Sessions: 8, Seed: 42}.normalize()
	// Pure function: same quantum, same answer.
	for q := int64(0); q < 50; q++ {
		if a, b2 := b.activeSessions(q), b.activeSessions(q); a != b2 {
			t.Fatalf("quantum %d: activeSessions not deterministic (%d vs %d)", q, a, b2)
		}
		if a := b.activeSessions(q); a < 0 || a > b.Sessions-1 {
			t.Fatalf("quantum %d: %d active of %d background sessions", q, a, b.Sessions-1)
		}
	}
	// Extremes: probability 1 keeps everyone active, 0 nobody.
	all := Bottleneck{Sessions: 8, ActiveProb: 1, Quantum: defaultQuantum, Weight: 1}
	none := Bottleneck{Sessions: 8, Quantum: defaultQuantum, Weight: 1} // prob 0: threshold below any hash
	for q := int64(0); q < 20; q++ {
		if got := all.activeSessions(q); got != 7 {
			t.Fatalf("prob 1: %d active, want 7", got)
		}
		if got := none.activeSessions(q); got != 0 {
			t.Fatalf("prob 0: %d active, want 0", got)
		}
	}
	// Different seeds give different activity patterns somewhere.
	other := b
	other.Seed = 43
	same := true
	for q := int64(0); q < 200 && same; q++ {
		same = b.activeSessions(q) == other.activeSessions(q)
	}
	if same {
		t.Fatal("200 quanta identical across different seeds (seed unused?)")
	}
}

func TestTransferTime(t *testing.T) {
	b := Bottleneck{Sessions: 4, Seed: 9}.normalize()
	bw := 1e6
	if got := b.transferTime(bw, 0, 0, nil); got != 0 {
		t.Errorf("zero bytes took %v", got)
	}
	if got := b.transferTime(bw, -sim.Second, 1000, nil); got <= 0 {
		t.Errorf("negative start: transfer %v", got)
	}
	// Monotone in bytes.
	var cs ContentionStats
	prev := sim.Time(0)
	for _, bytes := range []int64{1000, 10000, 100000, 1000000, 10000000} {
		d := b.transferTime(bw, sim.Second, bytes, &cs)
		if d < prev {
			t.Fatalf("%d bytes took %v, less than a smaller transfer's %v", bytes, d, prev)
		}
		prev = d
	}
	if cs.Quanta == 0 || cs.ContendedQuanta > cs.Quanta {
		t.Fatalf("implausible contention counters: %+v", cs)
	}
	// Contention can only slow transfers relative to the raw link, and an
	// uncontended pattern (prob 0) matches the raw link exactly.
	bytes := int64(5e6)
	raw := sim.FromSeconds(float64(bytes) / bw)
	if got := b.transferTime(bw, 0, bytes, nil); got < raw {
		t.Errorf("contended transfer %v faster than raw link %v", got, raw)
	}
	free := Bottleneck{Sessions: 4, Weight: 1, Quantum: defaultQuantum} // prob 0: background never active
	if got := free.transferTime(bw, 0, bytes, nil); got != raw {
		t.Errorf("idle background: transfer %v, want raw %v", got, raw)
	}
	// A transfer too large for the quantum-walk bound finishes in closed
	// form, is recorded as capped, and respects the global clamp.
	var capped ContentionStats
	huge := b.transferTime(1e3, 0, int64(1e12), &capped)
	if capped.CappedTransfers != 1 {
		t.Errorf("capped transfers = %d, want 1", capped.CappedTransfers)
	}
	if huge != maxTransfer {
		t.Errorf("pathological transfer %v, want the %v clamp", huge, maxTransfer)
	}
}

func abrOn(policy string) abr.Config {
	return abr.Config{Enabled: true, Policy: policy, FixedRung: -1}
}

func TestPlanABRShape(t *testing.T) {
	cfg := ThreeG()
	sched, err := PlanABR(cfg, abrOn("throughput"), testSizes(64), 30)
	if err != nil {
		t.Fatal(err)
	}
	if sched.ABR == nil {
		t.Fatal("ABR stats missing")
	}
	if len(sched.Rungs) != 64 {
		t.Fatalf("rungs length %d, want 64", len(sched.Rungs))
	}
	nr := sched.ABR.NumRungs
	for i, r := range sched.Rungs {
		if r < 0 || r >= nr {
			t.Fatalf("frame %d at rung %d of %d", i, r, nr)
		}
	}
	var segs int64
	for _, c := range sched.ABR.SegmentsAtRung {
		segs += c
	}
	if segs != int64(sched.Stats.Segments) {
		t.Fatalf("SegmentsAtRung sums to %d, want %d segments", segs, sched.Stats.Segments)
	}
	if sched.ABR.MinRung > sched.ABR.MaxRung {
		t.Fatalf("min rung %d above max %d", sched.ABR.MinRung, sched.ABR.MaxRung)
	}
	if sched.ABR.Switches > int64(sched.Stats.Segments-1) {
		t.Fatalf("%d switches across %d segments", sched.ABR.Switches, sched.Stats.Segments)
	}
	// Frames within one segment share a rung.
	for _, seg := range sched.Segments {
		for i := seg.FirstFrame + 1; i < seg.FirstFrame+seg.NumFrames; i++ {
			if sched.Rungs[i] != sched.Rungs[seg.FirstFrame] {
				t.Fatalf("segment %d spans rungs %d and %d", seg.Index, sched.Rungs[seg.FirstFrame], sched.Rungs[i])
			}
		}
	}
}

// TestPlanABRFixedTopIdentity pins the bit-identity contract at the planner
// level: ABR pinned to the top rung changes no byte of the schedule, and so
// does a single-session "bottleneck".
func TestPlanABRFixedTopIdentity(t *testing.T) {
	cfg := Flaky()
	base, err := Plan(cfg, testSizes(48), 30)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := PlanABR(cfg, abrOn("fixed"), testSizes(48), 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Avail, pinned.Avail) || base.Stats != pinned.Stats {
		t.Fatal("top-rung-pinned ABR changed the schedule")
	}
	if pinned.ABR == nil || pinned.ABR.Switches != 0 || pinned.ABR.MinRung != pinned.ABR.MaxRung {
		t.Fatalf("pinned plan switched rungs: %+v", pinned.ABR)
	}

	solo := cfg
	solo.Bottleneck = Bottleneck{Sessions: 1, Seed: 5}
	soloSched, err := Plan(solo, testSizes(48), 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base.Avail, soloSched.Avail) || base.Stats != soloSched.Stats {
		t.Fatal("single-session bottleneck changed the schedule")
	}
	if soloSched.Contention != nil {
		t.Fatal("single-session bottleneck produced contention stats")
	}
}

// TestPlanABRMonotone pins policy monotonicity end to end: on a clean link,
// a strictly faster link never lowers the average rung the throughput policy
// settles on.
func TestPlanABRMonotone(t *testing.T) {
	clean := LTE()
	clean.LossRate = 0
	clean.Jitter = 0
	prev := -1.0
	for _, bw := range []float64{2e4, 1e5, 3e5, 1e6, 8e6} {
		cfg := clean
		cfg.BandwidthBps = bw
		sched, err := PlanABR(cfg, abrOn("throughput"), testSizes(96), 30)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, r := range sched.Rungs {
			sum += float64(r)
		}
		mean := sum / float64(len(sched.Rungs))
		if mean < prev {
			t.Fatalf("bandwidth %.0f: mean rung %.3f below slower link's %.3f", bw, mean, prev)
		}
		prev = mean
	}
	// The sweep actually exercised adaptation: the fastest link ends above
	// the slowest.
	if prev == 0 {
		t.Fatal("even the fastest link stayed at the bottom rung")
	}
}

// TestPlanContention pins graceful degradation at the planner level:
// contention slows delivery, never corrupts it, and is deterministic in the
// contention seed.
func TestPlanContention(t *testing.T) {
	cfg := ThreeG()
	cfg.LossRate = 0
	cfg.Jitter = 0
	base, err := Plan(cfg, testSizes(64), 30)
	if err != nil {
		t.Fatal(err)
	}

	crowded := cfg
	crowded.Bottleneck = Bottleneck{Sessions: 8, Seed: 5}
	sched, err := Plan(crowded, testSizes(64), 30)
	if err != nil {
		t.Fatal(err)
	}
	if sched.Contention == nil {
		t.Fatal("contention stats missing")
	}
	if sched.Contention.ContendedQuanta == 0 {
		t.Fatal("8 sessions at default activity never contended")
	}
	if sched.Stats.LastDone < base.Stats.LastDone {
		t.Fatalf("contended delivery finished at %v, before uncontended %v",
			sched.Stats.LastDone, base.Stats.LastDone)
	}

	again, err := Plan(crowded, testSizes(64), 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sched.Avail, again.Avail) || *sched.Contention != *again.Contention {
		t.Fatal("same contention seed produced different schedules")
	}

	reseeded := crowded
	reseeded.Bottleneck.Seed = 6
	other, err := Plan(reseeded, testSizes(64), 30)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(sched.Avail, other.Avail) {
		t.Fatal("different contention seeds produced identical schedules")
	}
}

// FairShare computes the weighted max-min fair allocation of capacity among
// sessions with the given demands and weights: water-filling, where every
// unsatisfied session's allocation grows in proportion to its weight until
// its demand is met or the capacity is exhausted. The result is a pure
// function of the (demand, weight) multiset — permuting sessions permutes
// the output identically — and satisfies conservation (sum ≤ capacity) and
// work conservation (sum == min(capacity, total demand)).
//
// Demands and weights must be the same length; weights must be positive and
// demands non-negative, or FairShare panics (it is a model invariant, not
// an input-validation surface).
func FairShare(capacity float64, demands, weights []float64) []float64 {
	if len(demands) != len(weights) {
		panic("delivery: FairShare demand/weight length mismatch")
	}
	alloc := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	unsat := make([]int, 0, len(demands))
	for i, d := range demands {
		if d < 0 || math.IsNaN(d) || weights[i] <= 0 || math.IsNaN(weights[i]) {
			panic("delivery: FairShare negative demand or non-positive weight")
		}
		if d > 0 {
			unsat = append(unsat, i)
		}
	}
	remaining := capacity
	for len(unsat) > 0 && remaining > 0 {
		var sumW float64
		for _, i := range unsat {
			sumW += weights[i]
		}
		// The water level this round: the per-weight rate at which every
		// unsatisfied session fills.
		rate := remaining / sumW
		// Freeze every session whose remaining demand is met at this level.
		frozen := false
		for _, i := range unsat {
			if demands[i]-alloc[i] <= rate*weights[i] {
				frozen = true
			}
		}
		if !frozen {
			// Nobody saturates: hand out the rest proportionally and stop.
			for _, i := range unsat {
				alloc[i] += rate * weights[i]
			}
			return alloc
		}
		next := unsat[:0]
		for _, i := range unsat {
			if need := demands[i] - alloc[i]; need <= rate*weights[i] {
				alloc[i] = demands[i]
				remaining -= need
			} else {
				next = append(next, i)
			}
		}
		unsat = next
	}
	return alloc
}
