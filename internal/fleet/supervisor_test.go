package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// abortFrom builds hooks that deterministically interrupt the run the moment
// any session at or past cut would start — the in-process equivalent of a
// kill at that point in the schedule.
func abortFrom(cut int) Hooks {
	return Hooks{SessionStart: func(session, shard, attempt int, abort func() bool) error {
		if session >= cut {
			return ErrAborted
		}
		return nil
	}}
}

func TestResumeAtEveryChunkBoundary(t *testing.T) {
	cfg := testConfig()
	want := runCanonical(t, cfg, RunOptions{})
	for cut := 0; cut <= cfg.Sessions; cut += cfg.CheckpointEvery {
		dir := t.TempDir()
		sup, err := NewSupervisor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_, err = sup.Run(RunOptions{Dir: dir, Hooks: abortFrom(cut)})
		if cut < cfg.Sessions {
			if !errors.Is(err, ErrInterrupted) {
				t.Fatalf("cut=%d: interrupted run returned %v, want ErrInterrupted", cut, err)
			}
		} else if err != nil {
			t.Fatalf("cut=%d: uncut run failed: %v", cut, err)
		}

		sup2, err := NewSupervisor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := sup2.Run(RunOptions{Dir: dir, Resume: true})
		if err != nil {
			t.Fatalf("cut=%d: resume failed: %v", cut, err)
		}
		got, err := agg.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("cut=%d: resumed aggregate differs:\n%s\nvs\n%s", cut, got, want)
		}
		// Success must clear the manifests.
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
			t.Fatalf("cut=%d: %d manifests left after success (err %v)", cut, len(ents), err)
		}
	}
}

func TestResumeTopologyChange(t *testing.T) {
	// A run killed under one worker/chunk topology must resume bit-identically
	// under another: neither is part of the shard fingerprint.
	cfg := testConfig()
	want := runCanonical(t, cfg, RunOptions{})
	dir := t.TempDir()
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(RunOptions{Dir: dir, Hooks: abortFrom(cfg.Sessions / 2)}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	resumed := cfg
	resumed.Workers = 5
	resumed.CheckpointEvery = 3
	sup2, err := NewSupervisor(resumed)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sup2.Run(RunOptions{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := agg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("topology-changed resume differs:\n%s\nvs\n%s", got, want)
	}
}

func TestPanicInjectionQuarantineDeterministic(t *testing.T) {
	cfg := testConfig()
	inj := Injector{PanicRate: 0.25, PanicSeed: 7, StallShard: -1}
	var want []byte
	for _, topo := range [][2]int{{1, 1}, {2, 2}, {4, 3}, {8, 0}} {
		c := cfg
		c.Shards, c.Workers = topo[0], topo[1]
		sup, err := NewSupervisor(c)
		if err != nil {
			t.Fatal(err)
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

func TestWatchdogRestartsStalledShard(t *testing.T) {
	cfg := testConfig()
	want := runCanonical(t, cfg, RunOptions{})
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	agg, err := sup.Run(RunOptions{
		Hooks: Injector{StallShard: 1}.Hooks(),
		// The deadline must be generous enough that a healthy chunk always
		// publishes progress first, even under the race detector's slowdown;
		// the injected stall makes no progress at all, so it still trips.
		Watchdog: WatchdogConfig{StallDeadline: 3 * time.Second},
		Clock:    func() time.Duration { return time.Since(start) },
		Sleep:    time.Sleep,
	})
	if err != nil {
		t.Fatalf("stalled shard not recovered: %v", err)
	}
	if agg.Restarts < 1 {
		t.Fatal("watchdog recorded no restarts")
	}
	// Apart from the restart counter the aggregate must match the clean run.
	agg.Restarts = 0
	got, err := agg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-restart aggregate differs:\n%s\nvs\n%s", got, want)
	}
}

func TestWatchdogGivesUpAfterMaxRestarts(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 2
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Unlike the Injector, this stall never clears, so the restart budget
	// must run out.
	hooks := Hooks{SessionStart: func(session, shard, attempt int, abort func() bool) error {
		if shard == 1 {
			for !abort() {
				runtime.Gosched()
			}
			return ErrAborted
		}
		return nil
	}}
	start := time.Now()
	_, err = sup.Run(RunOptions{
		Hooks: hooks,
		Watchdog: WatchdogConfig{
			StallDeadline: time.Second,
			MaxRestarts:   1,
			BackoffBase:   time.Millisecond,
		},
		Clock: func() time.Duration { return time.Since(start) },
		Sleep: time.Sleep,
	})
	if err == nil || !strings.Contains(err.Error(), "still stalled") {
		t.Fatalf("permanently stalled shard returned %v, want still-stalled failure", err)
	}
}

func TestWatchdogNeedsClockAndSleep(t *testing.T) {
	sup, err := NewSupervisor(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(RunOptions{Watchdog: WatchdogConfig{StallDeadline: time.Second}}); err == nil {
		t.Fatal("watchdog without Clock/Sleep accepted")
	}
}

func TestCorruptManifestRecomputed(t *testing.T) {
	cfg := testConfig()
	want := runCanonical(t, cfg, RunOptions{})
	dir := t.TempDir()
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sup.Run(RunOptions{Dir: dir, Hooks: abortFrom(3 * cfg.Sessions / 4)}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("interrupted run returned %v", err)
	}
	path := ManifestPath(dir, 0)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[40] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs []string
	sup2, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sup2.Run(RunOptions{Dir: dir, Resume: true, Logf: func(format string, args ...any) {
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	if err != nil {
		t.Fatalf("resume over corrupt manifest failed: %v", err)
	}
	recomputed := 0
	for _, l := range logs {
		if strings.Contains(l, "recomputing") {
			recomputed++
		}
	}
	if recomputed != 1 {
		t.Fatalf("%d shards recomputed, want exactly the corrupted one:\n%s", recomputed, strings.Join(logs, "\n"))
	}
	got, err := agg.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-corruption aggregate differs:\n%s\nvs\n%s", got, want)
	}
}

func TestStopChannelInterrupts(t *testing.T) {
	cfg := testConfig()
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sup.Plans()); got != cfg.Sessions {
		t.Fatalf("supervisor derived %d plans, want %d", got, cfg.Sessions)
	}
	stop := make(chan struct{})
	close(stop)
	dir := t.TempDir()
	if _, err := sup.Run(RunOptions{Dir: dir, Stop: stop}); !errors.Is(err, ErrInterrupted) {
		t.Fatalf("pre-fired stop returned %v, want ErrInterrupted", err)
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
