package core

import (
	"runtime"
	"testing"

	"mach/internal/delivery"
	"mach/internal/hashes"
	"mach/internal/mach"
	"mach/internal/soc"
	"mach/internal/video"
)

// gridRow is one configuration of the step grid.
type gridRow struct {
	name string
	s    Scheme
	cfg  Config
	// allocates, when set, says why the row's steps may allocate; the
	// allocation test skips such rows and the resume tests still run them.
	allocates string
	// switches requires a rung switch inside the allocation test's measured
	// frames, so those frames fill the digest table of a quant shift the
	// warm-up never touched.
	switches bool
}

// stepGrid is the one configuration table the per-frame invariants run
// over: TestStepFrameZeroAllocs requires a steady-state StepFrame to
// allocate nothing, TestResumeBitIdenticalSchemes requires a run resumed at
// every frame boundary to equal the uninterrupted one, and
// TestEnergyComponentsSumToTotal holds every joule to its ledger. Its rows
// reach each branch a configuration can select in the per-frame step:
// Baseline drops frames (the display repeats the previous one), Fig 7a's
// configuration writes back through the decode cache, SlackPredict and
// Adaptive carry the runner's prediction and batch-pattern state, every
// digest function, replacement policy and MACH mode is hashed and
// classified, the traffic row emits background DRAM traffic, and the
// delivery rows rebuffer, shrink batches and switch ABR rungs.
func stepGrid() []gridRow {
	with := func(f func(*Config)) Config {
		cfg := testConfig()
		f(&cfg)
		return cfg
	}
	gab := GAB(DefaultBatch)
	var rows []gridRow
	for _, s := range StandardSchemes() {
		rows = append(rows, gridRow{name: s.Name, s: s, cfg: testConfig()})
	}
	rows = append(rows,
		gridRow{name: "Baseline+cache-writeback", s: Baseline(), cfg: with(func(c *Config) { c.Decoder.WritebackThroughCache = true })},
		gridRow{name: "GAB-noDC", s: GABNoDisplayOpt(DefaultBatch), cfg: testConfig()},
		gridRow{name: "SlackPredict", s: SlackPredictive(), cfg: testConfig()},
		gridRow{name: "Adaptive", s: AdaptiveBatching(DefaultBatch, []int{2, 8, 4}), cfg: testConfig()},
		gridRow{name: "GAB+CO-MACH", s: gab, cfg: with(func(c *Config) { c.Mach.CoMach = true })},
		gridRow{name: "MAB+CO-MACH", s: MAB(DefaultBatch), cfg: with(func(c *Config) { c.Mach.CoMach = true })},
	)
	for _, h := range hashes.AllFuncs() {
		if h != testConfig().Mach.Digest {
			rows = append(rows, gridRow{name: "GAB+" + h.String(), s: gab, cfg: with(func(c *Config) { c.Mach.Digest = h })})
		}
	}
	for _, p := range []mach.Replacement{mach.LFU, mach.FIFO} {
		rows = append(rows, gridRow{name: "GAB+" + p.String(), s: gab, cfg: with(func(c *Config) { c.Mach.Policy = p })})
	}
	rows = append(rows,
		gridRow{name: "GAB+collisions", s: gab, cfg: with(func(c *Config) { c.Mach.TrackCollisions = true })},
		gridRow{name: "GAB+no-coalesce", s: gab, cfg: with(func(c *Config) { c.Mach.Coalesce = false })},
		gridRow{name: "GAB+traffic", s: gab, cfg: with(func(c *Config) { c.Traffic = soc.DefaultTraffic() })},
		gridRow{name: "GAB+lte", s: gab, cfg: with(func(c *Config) { c.Delivery = delivery.LTE() })},
		gridRow{name: "GAB+flaky", s: gab, cfg: with(func(c *Config) { c.Delivery = delivery.Flaky() })},
		gridRow{name: "GAB+buffer-ABR", s: gab, cfg: abrConfig("buffer", 1e6, 0), switches: true},
		gridRow{name: "GAB+throughput-ABR-contended", s: gab, cfg: abrConfig("throughput", 8e6, 4)},
		gridRow{name: "Race-to-Sleep+buffer-ABR", s: RaceToSleep(DefaultBatch), cfg: abrConfig("buffer", 1e6, 0)},
		// Fig 9b's per-digest match count is a map that gains an entry for
		// every digest it has not seen, on any frame.
		gridRow{name: "GAB+popularity", s: gab, cfg: with(func(c *Config) { c.Mach.TrackPopularity = true }),
			allocates: "TrackPopularity counts matches per digest in a map that grows with each new digest"},
	)
	return rows
}

// mallocs returns the exact number of heap allocations f makes.
// testing.AllocsPerRun divides the total by its run count, so an allocation
// made in fewer than all of its runs would read as 0.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestStepFrameZeroAllocs pins the hot-path invariant: once the frame pools
// and writeback free lists recycle, a steady-state StepFrame allocates
// nothing, on every row of the step grid. It counts every allocation over
// the measured frames and requires 0. The pipeline recycles a frame's
// layout only retention+4 display periods after scan-out, and the display
// lags the decoder by up to a batch, so the warm-up steps twice that
// NumMACHs+batch+12 horizon before measuring.
//
// The rows share one freshly built trace per profile and use distinct
// digest-table variants, so each measured frame is the first touch of its
// table entries and StepFrame fills them: the CO-MACH rows fill aux hashes
// too, and the buffer-ABR row's link is slow enough that a rung switch, and
// with it the first touch of another quant shift's table, lands inside the
// measured frames. A map-growth allocation depends on the map's random hash
// seed, so CI runs this test ten times.
func TestStepFrameZeroAllocs(t *testing.T) {
	const measured = 32
	warm := 2 * (testConfig().Mach.NumMACHs + DefaultBatch + 12)
	for _, key := range []string{"V1", "V4", "V8"} {
		sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: warm + measured, Seed: 5, MabSize: 4, Quant: 8}
		tr, err := BuildTrace(key, sc)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range stepGrid() {
			if row.allocates != "" {
				continue
			}
			r, err := NewRunner(tr, row.s, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < warm; i++ {
				r.StepFrame()
			}
			switches := r.rungSwitches
			n := mallocs(func() {
				for i := 0; i < measured; i++ {
					r.StepFrame()
				}
			})
			if n != 0 {
				t.Errorf("%s/%s: %d allocations over %d steady-state frames, want 0", row.name, key, n, measured)
			}
			if row.switches && r.rungSwitches == switches {
				t.Errorf("%s/%s: no rung switch inside the measured frames", row.name, key)
			}
		}
	}
}
