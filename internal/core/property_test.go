package core

import (
	"math"
	"reflect"
	"testing"

	"mach/internal/energy"
	"mach/internal/sim"
)

// Property and metamorphic tests: invariants that must hold for every
// scheme and workload, complementing the golden corpus (which pins exact
// values for one configuration) with laws that constrain all of them.
// The parallel≡sequential law lives in parallel_test.go.

// TestEnergyComponentsSumToTotal checks the accounting behind every figure
// on every row of the step grid: each energy component equals the ledger it
// is booked from, each ledger equals the residency or event count it was
// booked from, the decoder's residency tiles the wall time exactly, and the
// non-negative components sum to the total. A joule dropped or booked twice
// anywhere between a model's accumulator and the breakdown breaks one of
// these identities; the sum alone cannot see it, because the component and
// the total lose it together.
func TestEnergyComponentsSumToTotal(t *testing.T) {
	tr := testTrace(t, "V5", 16)
	for _, row := range stepGrid() {
		res := mustRun(t, tr, row.s, row.cfg)
		checkLedgers(t, row, sim.Time(int64(sim.Second)/int64(tr.FPS)), res)
	}
}

// checkLedgers reports every ledger identity res breaks. period is the
// display's frame period.
func checkLedgers(t *testing.T, row gridRow, period sim.Time, res *Result) {
	t.Helper()
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9*math.Max(math.Abs(got), math.Abs(want)) {
			t.Errorf("%s: %s is %.15g J, its source says %.15g J", row.name, what, got, want)
		}
	}
	cfg := row.cfg

	if sum := res.BusyTime + res.IdleTime + res.S1Time + res.S3Time + res.TransTime; sum != res.WallTime {
		t.Errorf("%s: residency sums to %v, wall time is %v", row.name, sum, res.WallTime)
	}

	// Power ledger. Every round trip is an S1 or an S3 one, so the count
	// and the total transition time fix how many of each were taken.
	ld := res.Ledger
	pc := ld.Config()
	near("idle energy", float64(ld.IdleEnergy), float64(pc.IdlePower.Over(ld.IdleTime)))
	near("S1 energy", float64(ld.S1Energy), float64(pc.S1Power.Over(ld.S1Time)))
	near("S3 energy", float64(ld.S3Energy), float64(pc.S3Power.Over(ld.S3Time)))
	extra := ld.TransitionTime - sim.Time(ld.Transitions)*pc.S1Transition
	step := pc.S3Transition - pc.S1Transition
	if n3 := int64(extra / step); extra%step != 0 || n3 < 0 || n3 > ld.Transitions {
		t.Errorf("%s: %d transitions cannot take %v", row.name, ld.Transitions, ld.TransitionTime)
	} else {
		n1 := ld.Transitions - n3
		near("transition energy", float64(ld.TransEnergy),
			float64(n1)*float64(pc.S1TransitionEnergy)+float64(n3)*float64(pc.S3TransitionEnergy))
	}

	// DRAM: an activate and a precharge each cost half a pair.
	dc, m, me := cfg.DRAM, res.Mem, res.MemEnergy
	near("DRAM act/pre energy", float64(me.ActPre), float64(m.Activates+m.Precharges)*float64(dc.EnergyActPre)/2)
	near("DRAM burst energy", float64(me.Burst),
		float64(m.Reads)*float64(dc.EnergyReadLine)+float64(m.Writes)*float64(dc.EnergyWriteLine))
	near("DRAM background energy", float64(me.Background),
		float64(dc.BackgroundPower.Over(res.WallTime))+float64(m.Refreshes)*float64(dc.EnergyRefresh))

	// Display: every refresh, new frame or repeat, scans for one period.
	near("display energy", float64(res.Disp.ActiveEnergy),
		float64(cfg.Display.Power.Over(period))*float64(res.Disp.FramesShown+res.Disp.FrameRepeats))

	rc, rs := cfg.Delivery.Radio, res.Radio
	near("radio active energy", float64(rs.ActiveEnergy), float64(rc.ActivePower.Over(rs.ActiveTime)))
	near("radio tail energy", float64(rs.TailEnergy), float64(rc.TailPower.Over(rs.TailTime)))
	near("radio sleep energy", float64(rs.SleepEnergy), float64(rc.SleepPower.Over(rs.SleepTime)))
	near("radio wake energy", float64(rs.WakeEnergy), float64(rs.Wakeups)*float64(rc.WakeEnergy))

	// Decoder: SlackPredict races frame by frame, so its busy time mixes
	// the two DVFS points.
	busy := float64(res.Dec.ActiveEnergy)
	if row.s.SlackPredict {
		lo, hi := float64(cfg.Decoder.PowerLow.Over(res.BusyTime)), float64(cfg.Decoder.PowerHigh.Over(res.BusyTime))
		if busy < lo*(1-1e-9) || busy > hi*(1+1e-9) {
			t.Errorf("%s: decoder energy %.15g J lies outside [%.15g, %.15g] J", row.name, busy, lo, hi)
		}
	} else {
		near("decoder energy", busy, float64(cfg.Decoder.Power(row.s.Race).Over(res.BusyTime)))
	}

	machOn := row.s.Mach != MachOff
	var gabMabs int64
	if row.s.Mach == MachGAB {
		gabMabs = res.Mach.Mabs
	}
	overhead := float64(cfg.SRAM.Overhead(res.WallTime.Seconds(), machOn, machOn && row.s.DisplayOpt,
		res.Mach.Mabs*int64(1+cfg.Mach.NumMACHs), res.Disp.DigestRecords+res.Disp.PrefetchReads,
		res.Disp.DCLookups, gabMabs))

	ledgers := map[string]float64{
		energy.CompVDBusy:        busy,
		energy.CompSleep:         float64(ld.S1Energy + ld.S3Energy),
		energy.CompShortSlack:    float64(ld.IdleEnergy),
		energy.CompTransition:    float64(ld.TransEnergy),
		energy.CompMemActPre:     float64(me.ActPre),
		energy.CompMemBurst:      float64(me.Burst),
		energy.CompMemBackground: float64(me.Background),
		energy.CompDC:            float64(res.Disp.ActiveEnergy),
		energy.CompMachOverhead:  overhead,
		energy.CompRadio:         float64(rs.TotalEnergy()),
	}
	var sum float64
	for _, k := range append(energy.Components(), energy.CompRadio) {
		v := res.Energy.Get(k)
		near(k+" component", v, ledgers[k])
		if v < 0 {
			t.Errorf("%s: component %s is negative: %g", row.name, k, v)
		}
		sum += ledgers[k]
	}
	near("total energy", res.TotalEnergy(), sum)
	for _, k := range res.Energy.Keys() {
		if _, ok := ledgers[k]; !ok {
			t.Errorf("%s: no ledger books component %s", row.name, k)
		}
	}
}

// TestRatesWithinUnitInterval checks that every reported rate is a
// probability: caches cannot hit more than they are asked, residency
// cannot exceed wall time.
func TestRatesWithinUnitInterval(t *testing.T) {
	tr := testTrace(t, "V7", 12)
	for _, s := range StandardSchemes() {
		res := mustRun(t, tr, s, testConfig())
		rates := map[string]float64{
			"mach match rate":   res.Mach.MatchRate(),
			"dram row-hit rate": res.Mem.RowHitRate(),
			"dec ref-hit rate":  res.Dec.RefHitRate(),
			"dec wb-hit rate":   res.Dec.WbHitRate(),
			"s3 residency":      res.S3Residency(),
		}
		for name, r := range rates {
			if r < 0 || r > 1 || math.IsNaN(r) {
				t.Errorf("%s: %s = %g outside [0,1]", s.Name, name, r)
			}
		}
	}
}

// TestMachCapacityMonotonic checks the metamorphic law of the content
// cache: searching more frozen MACHs can only expose more match
// opportunities, so total matches never decrease as NumMACHs grows (the
// pointer-aging window widens with it, Fig 12a's x-axis).
func TestMachCapacityMonotonic(t *testing.T) {
	tr := testTrace(t, "V5", 16)
	prev := int64(-1)
	prevN := 0
	for _, n := range []int{0, 1, 2, 4, 8, 16, 32} {
		cfg := testConfig()
		cfg.Mach.NumMACHs = n
		res := mustRun(t, tr, GAB(DefaultBatch), cfg)
		matches := res.Mach.IntraMatches + res.Mach.InterMatches
		if matches < prev {
			t.Errorf("matches dropped from %d (NumMACHs=%d) to %d (NumMACHs=%d)", prev, prevN, matches, n)
		}
		prev, prevN = matches, n
	}
}

// TestBatchOneIsBaseline checks that Batching(1) is the identity
// transformation: a one-deep batch schedules exactly like the unbatched
// baseline, so every quantity except the scheme's display name matches.
func TestBatchOneIsBaseline(t *testing.T) {
	tr := testTrace(t, "V2", 12)
	base := mustRun(t, tr, Baseline(), testConfig()).Canonical()
	one := mustRun(t, tr, Batching(1), testConfig()).Canonical()
	if base.Scheme != "Baseline" || one.Scheme != "Batching" {
		t.Fatalf("scheme names changed: %q vs %q", base.Scheme, one.Scheme)
	}
	base.Scheme, one.Scheme = "", ""
	if !reflect.DeepEqual(base, one) {
		t.Errorf("Batching(1) diverged from Baseline:\nbaseline: %+v\nbatch-1:  %+v", base, one)
	}
}
