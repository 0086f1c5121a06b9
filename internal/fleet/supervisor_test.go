package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// killImage runs cfg to completion with checkpointing on and returns a copy
// of its manifest directory taken the instant session cut starts. A chunk's
// manifest is saved before the next chunk's first session starts, and no
// manifest is written while a chunk runs, so the copy is exactly what a
// SIGKILL at that instant would leave on disk.
func killImage(t *testing.T, cfg Config, cut int) string {
	t.Helper()
	dir, image := t.TempDir(), t.TempDir()
	hooks := Hooks{SessionStart: func(session int) error {
		if session != cut {
			return nil
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			return err
		}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				return err
			}
			if err := os.WriteFile(filepath.Join(image, e.Name()), b, 0o644); err != nil {
				return err
			}
		}
		return nil
	}}
	agg := runAggregate(t, cfg, RunOptions{Dir: dir, Hooks: hooks})
	if agg.Quarantined != 0 {
		t.Fatalf("cut=%d: copying the manifests failed: %+v", cut, agg.Quarantine)
	}
	return image
}

// resumeFrom resumes cfg from the manifests in dir and returns the
// canonical aggregate, the sessions the run started in ascending order, and
// its log lines. A completed run must leave dir empty.
func resumeFrom(t *testing.T, cfg Config, dir string) (agg []byte, started []int, logs []string) {
	t.Helper()
	var mu sync.Mutex
	agg = runCanonical(t, cfg, RunOptions{
		Dir:    dir,
		Resume: true,
		Hooks: Hooks{SessionStart: func(session int) error {
			mu.Lock()
			started = append(started, session)
			mu.Unlock()
			return nil
		}},
		Logf: func(format string, args ...any) { logs = append(logs, fmt.Sprintf(format, args...)) },
	})
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("%d manifests left after success (err %v)", len(ents), err)
	}
	slices.Sort(started)
	return agg, started, logs
}

// sessionRange returns the session indices [lo, hi).
func sessionRange(lo, hi int) []int {
	var s []int
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}

// killConfig is testConfig with four chunks per shard, so a cut can land
// inside a shard as well as on a shard boundary.
func killConfig() Config {
	cfg := testConfig()
	cfg.Shards = 2
	cfg.CheckpointEvery = 2
	return cfg
}

func TestResumeAtEveryChunkBoundary(t *testing.T) {
	cfg := killConfig()
	want := runCanonical(t, cfg, RunOptions{})
	for cut := 0; cut < cfg.Sessions; cut += cfg.CheckpointEvery {
		got, started, _ := resumeFrom(t, cfg, killImage(t, cfg, cut))
		if !bytes.Equal(got, want) {
			t.Fatalf("cut=%d: resumed aggregate differs:\n%s\nvs\n%s", cut, got, want)
		}
		// Every chunk committed before the kill is taken from its manifest,
		// and nothing at or after the cut's chunk is.
		if w := sessionRange(cut, cfg.Sessions); !slices.Equal(started, w) {
			t.Fatalf("cut=%d: resumed run started sessions %v, want %v", cut, started, w)
		}
	}
}

func TestResumeTopologyChange(t *testing.T) {
	// A run killed under one worker/chunk topology must resume bit-identically
	// under another: neither is part of the shard fingerprint.
	cfg := killConfig()
	want := runCanonical(t, cfg, RunOptions{})
	cut := 6 // inside shard 0's range [0,8)
	image := killImage(t, cfg, cut)
	resumed := cfg
	resumed.Workers = 5
	resumed.CheckpointEvery = 3
	got, started, _ := resumeFrom(t, resumed, image)
	if !bytes.Equal(got, want) {
		t.Fatalf("topology-changed resume differs:\n%s\nvs\n%s", got, want)
	}
	if w := sessionRange(cut, cfg.Sessions); !slices.Equal(started, w) {
		t.Fatalf("resumed run started sessions %v, want %v", started, w)
	}
}

func TestPanicInjectionQuarantineDeterministic(t *testing.T) {
	cfg := testConfig()
	inj := Injector{PanicRate: 0.25, PanicSeed: 7}
	var want []byte
	for _, topo := range [][2]int{{1, 1}, {2, 2}, {4, 3}, {8, 0}} {
		c := cfg
		c.Shards, c.Workers = topo[0], topo[1]
		sup, err := NewSupervisor(c)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(sup.Plans()); got != c.Sessions {
			t.Fatalf("topo %v: supervisor derived %d plans, want %d", topo, got, c.Sessions)
		}
		agg, err := sup.Run(RunOptions{Hooks: inj.Hooks()})
		if err != nil {
			t.Fatalf("topo %v: injected panics escaped: %v", topo, err)
		}
		if agg.Quarantined == 0 {
			t.Fatalf("topo %v: no sessions quarantined at panic rate %g", topo, inj.PanicRate)
		}
		if agg.Completed+agg.Quarantined != c.Sessions {
			t.Fatalf("topo %v: %d completed + %d quarantined != %d sessions",
				topo, agg.Completed, agg.Quarantined, c.Sessions)
		}
		for _, q := range agg.Quarantine {
			if !strings.Contains(q.Err, "panic") {
				t.Fatalf("quarantine record %+v does not carry the panic", q)
			}
		}
		if !strings.Contains(agg.String(), "quarantined session") {
			t.Fatal("report omits quarantined sessions")
		}
		got, err := agg.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("quarantined aggregate differs at topo %v:\n%s\nvs\n%s", topo, got, want)
		}
	}
}

// TestPanicInjectionRateBounds pins the injector's end points: rate 1
// panics every session's start hook and rate 0 none.
func TestPanicInjectionRateBounds(t *testing.T) {
	for _, rate := range []float64{0, 1} {
		start := Injector{PanicRate: rate, PanicSeed: 7}.Hooks().SessionStart
		for session := 0; session < 256; session++ {
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				_ = start(session)
				return false
			}()
			if panicked != (rate == 1) {
				t.Fatalf("rate %g: session %d panicked = %v", rate, session, panicked)
			}
		}
	}
}

func TestCorruptManifestRecomputed(t *testing.T) {
	cfg := testConfig()
	want := runCanonical(t, cfg, RunOptions{})
	cut := 3 * cfg.Sessions / 4
	image := killImage(t, cfg, cut)
	path := ManifestPath(image, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got, started, logs := resumeFrom(t, cfg, image)
	recomputed := 0
	for _, l := range logs {
		if strings.Contains(l, "recomputing") {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Fatalf("%d shards recomputed, want exactly the corrupted one:\n%s", recomputed, strings.Join(logs, "\n"))
	}
	lo, hi := cfg.ShardRange(0)
	if w := append(sessionRange(lo, hi), sessionRange(cut, cfg.Sessions)...); !slices.Equal(started, w) {
		t.Fatalf("resumed run started sessions %v, want shard 0 and %d onwards: %v", started, cut, w)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-corruption aggregate differs:\n%s\nvs\n%s", got, want)
	}
}

func TestAggregateSchemaStable(t *testing.T) {
	// The canonical JSON is a CI contract (md5-compared across kill/resume);
	// pin the top-level field set so accidental schema drift is loud.
	cfg := testConfig()
	b := runCanonical(t, cfg, RunOptions{})
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{
		"format", "sessions", "seed", "scheme", "completed", "quarantined",
		"restarts", "profile_sessions", "energy_j", "radio_j", "drop_rate",
		"rebuffer_rate", "startup_ms", "dram_per_frame_kb",
		"total_frames", "total_drops", "total_rebuffers", "total_energy_j",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("aggregate JSON missing %q", key)
		}
	}
	var agg Aggregate
	if err := json.Unmarshal(b, &agg); err != nil {
		t.Fatal(err)
	}
	if agg.Completed != cfg.Sessions || agg.EnergyJ.N != int64(cfg.Sessions) {
		t.Fatalf("aggregate counts off: %d completed, energy N %d", agg.Completed, agg.EnergyJ.N)
	}
	if agg.EnergyJ.Mean <= 0 || agg.TotalEnergyJ <= 0 || agg.TotalFrames <= 0 {
		t.Fatalf("aggregate carries non-positive totals: %+v", agg)
	}
	if agg.DramPerFrame.HiKB <= 0 || len(agg.DramPerFrame.Counts) != dramHistBins {
		t.Fatalf("dram histogram malformed: %+v", agg.DramPerFrame)
	}
	var n int64
	for _, c := range agg.DramPerFrame.Counts {
		n += c
	}
	if n != int64(cfg.Sessions) {
		t.Fatalf("dram histogram holds %d sessions, want %d", n, cfg.Sessions)
	}
}
