package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mach/internal/core"
	"mach/internal/energy"
	"mach/internal/trace"
	"mach/internal/video"
)

var update = flag.Bool("update", false, "rewrite digests.json from the current program")

// smallTrace is a V7 trace (B-frames) small enough for a unit test.
func smallTrace(t *testing.T) *trace.Trace {
	t.Helper()
	sc := video.DefaultStreamConfig()
	sc.Width, sc.Height, sc.NumFrames = 96, 64, 20
	tr, err := core.BuildTrace("V7", sc)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func smallBench(t *testing.T, name string) *bench {
	t.Helper()
	b, err := newBench(name, defaultSeed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func wantFail(t *testing.T, err error, what string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: check passed, want it to fail", what)
	} else if !strings.Contains(err.Error(), what) {
		t.Errorf("failed for another reason than %q: %v", what, err)
	}
}

func TestSessionCheckFailsOnPerturbedResult(t *testing.T) {
	tr := smallTrace(t)
	b := smallBench(t, "recipe")
	fresh := func() (*core.Result, string) {
		res, err := b.session(nil, tr, false)
		if err != nil {
			t.Fatal(err)
		}
		d, err := resultDigest(res)
		if err != nil {
			t.Fatal(err)
		}
		return res, d
	}
	res, want := fresh()
	if err := checkSession(tr, res, want); err != nil {
		t.Fatalf("unperturbed result fails: %v", err)
	}

	res, _ = fresh()
	res.Drops++
	wantFail(t, checkSession(tr, res, want), "digest")

	res, _ = fresh()
	res.Dec.Frames--
	wantFail(t, checkSession(tr, res, ""), "decoded")

	res, _ = fresh()
	res.Dec.ActiveEnergy *= 1.001
	wantFail(t, checkSession(tr, res, ""), "ledger")

	res, _ = fresh()
	res.Energy.Add(energy.CompMemBurst, 1e-9)
	wantFail(t, checkSession(tr, res, ""), "ledger")

	res, _ = fresh()
	res.Ledger.S3Energy *= 1.001
	wantFail(t, checkSession(tr, res, ""), "ledger")
}

func TestResumeFailsOnFlippedCheckpointByte(t *testing.T) {
	tr := smallTrace(t)
	for _, traced := range []bool{false, true} {
		var tt *tracer
		if traced {
			tt = newTracer()
		}
		b := smallBench(t, "recipe")
		r, err := core.NewRunner(tr, b.scheme, b.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			r.StepFrame()
		}
		path := filepath.Join(b.tmp, "c.mckp")
		if err := saveCheckpoint(tt, r, path); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpoint(tt, path, tr, b.scheme, b.cfg); err != nil {
			t.Fatalf("traced=%v: intact checkpoint does not load: %v", traced, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := loadCheckpoint(tt, path, tr, b.scheme, b.cfg); err == nil {
			t.Errorf("traced=%v: a checkpoint with a flipped byte loaded", traced)
		}
	}
}

func TestResumedSessionMatchesUninterrupted(t *testing.T) {
	tr := smallTrace(t)
	b := smallBench(t, "recipe")
	want, err := b.session(nil, tr, false)
	if err != nil {
		t.Fatal(err)
	}
	d, err := resultDigest(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range []*tracer{nil, newTracer()} {
		got, err := b.session(tt, tr, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSession(tr, got, d); err != nil {
			t.Errorf("resumed session: %v", err)
		}
	}
}

func TestFleetCheckFailsOnPerturbedAggregate(t *testing.T) {
	b := smallBench(t, "recipe")
	b.fcfg.Sessions = 6
	b.fcfg.Stream.Width, b.fcfg.Stream.Height, b.fcfg.Stream.NumFrames = 96, 64, 8
	if err := b.buildFleet(nil); err != nil {
		t.Fatal(err)
	}
	plans := b.sup.Plans()
	fresh := func() string {
		agg, err := b.fleetRun(nil)
		if err != nil {
			t.Fatal(err)
		}
		b.refAgg = agg
		d, err := aggregateDigest(agg)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	want := fresh()
	if err := checkFleet(b.refAgg, plans, want); err != nil {
		t.Fatalf("unperturbed aggregate fails: %v", err)
	}
	fresh()
	b.refAgg.TotalEnergyJ *= 1.000001
	wantFail(t, checkFleet(b.refAgg, plans, want), "digest")
	fresh()
	b.refAgg.Quarantined = 1
	wantFail(t, checkFleet(b.refAgg, plans, ""), "quarantined")
	fresh()
	b.refAgg.Restarts = 1
	wantFail(t, checkFleet(b.refAgg, plans, ""), "restarts")
	fresh()
	b.refAgg.TotalFrames--
	wantFail(t, checkFleet(b.refAgg, plans, ""), "frames")
	entries, err := os.ReadDir(b.tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("fleet runs left %d entries in their scratch directory", len(entries))
	}
}

// TestPinnedDigests recomputes every pinned digest at the default seed at
// full workload size; -update rewrites digests.json instead of comparing.
func TestPinnedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's traces")
	}
	got := pins{Seed: defaultSeed, Sessions: map[string]map[string]string{}}
	for _, name := range workloads {
		b := smallBench(t, name)
		if err := b.setup(nil); err != nil {
			t.Fatal(err)
		}
		got.Sessions[name] = map[string]string{}
		for _, tr := range b.traces {
			res, err := b.session(nil, tr, false)
			if err != nil {
				t.Fatal(err)
			}
			if err := checkSession(tr, res, ""); err != nil {
				t.Fatal(err)
			}
			if got.Sessions[name][tr.Profile], err = resultDigest(res); err != nil {
				t.Fatal(err)
			}
		}
	}
	b := smallBench(t, "recipe")
	if err := b.buildFleet(nil); err != nil {
		t.Fatal(err)
	}
	agg, err := b.fleetRun(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkFleet(agg, b.sup.Plans(), ""); err != nil {
		t.Fatal(err)
	}
	if got.Fleet, err = aggregateDigest(agg); err != nil {
		t.Fatal(err)
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	for name, byProfile := range got.Sessions {
		for profile, d := range byProfile {
			if want.Sessions[name][profile] != d {
				t.Errorf("%s %s: digest %s, pinned %s", name, profile, d, want.Sessions[name][profile])
			}
		}
	}
	if want.Fleet != got.Fleet {
		t.Errorf("fleet: digest %s, pinned %s", got.Fleet, want.Fleet)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i := range spec.Workloads {
		if i < len(workloads) && spec.Workloads[i].Name != workloads[i] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", i, spec.Workloads[i].Name, workloads[i])
		}
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		prog []metricSpec
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", c.kind, len(c.spec), len(c.prog))
			continue
		}
		for i := range c.spec {
			if c.spec[i].Name != c.prog[i].name || c.spec[i].Unit != c.prog[i].unit {
				t.Errorf("%s %d: %s [%s] in BENCHMARK.json, %s [%s] in the program",
					c.kind, i, c.spec[i].Name, c.spec[i].Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}
