package fleet

import (
	"bytes"
	"errors"
	"testing"

	"mach/internal/core"
	"mach/internal/delivery"
)

// testConfig is a smoke-scale fleet small enough for the property grids:
// two profiles cap trace synthesis, four shards of four sessions give real
// chunk boundaries at CheckpointEvery 4.
func testConfig() Config {
	cfg := Default()
	cfg.Sessions = 16
	cfg.Shards = 4
	cfg.Workers = 2
	cfg.CheckpointEvery = 4
	cfg.Stream.NumFrames = 8
	cfg.Stream.Width, cfg.Stream.Height = 96, 64
	cfg.Profiles = []string{"V1", "V3"}
	cfg.CellSize = 4
	cfg.Horizon = 8
	return cfg
}

// runAggregate builds a supervisor, runs it, and returns the aggregate.
func runAggregate(t *testing.T, cfg Config, opts RunOptions) *Aggregate {
	t.Helper()
	sup, err := NewSupervisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := sup.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	return agg
}

// runCanonical runs cfg and returns the canonical aggregate bytes.
func runCanonical(t *testing.T, cfg Config, opts RunOptions) []byte {
	t.Helper()
	b, err := runAggregate(t, cfg, opts).CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero sessions", func(c *Config) { c.Sessions = 0 }},
		{"huge sessions", func(c *Config) { c.Sessions = 1<<24 + 1 }},
		{"zero shards", func(c *Config) { c.Shards = 0 }},
		{"huge shards", func(c *Config) { c.Shards = 4097 }},
		{"negative workers", func(c *Config) { c.Workers = -1 }},
		{"zero checkpoint grain", func(c *Config) { c.CheckpointEvery = 0 }},
		{"negative cell", func(c *Config) { c.CellSize = -1 }},
		{"zero horizon", func(c *Config) { c.Horizon = 0 }},
		{"unknown profile", func(c *Config) { c.Profiles = []string{"V99"} }},
		{"bad stream", func(c *Config) { c.Stream.NumFrames = 0 }},
	} {
		cfg := testConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, cfg)
		}
		if _, err := NewSupervisor(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: NewSupervisor error %v, want ErrConfig", tc.name, err)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("test config invalid: %v", err)
	}
}

func TestNormalizeFillsAllProfiles(t *testing.T) {
	cfg := testConfig()
	cfg.Profiles = nil
	if got := len(cfg.normalize().Profiles); got != len(core.WorkloadKeys()) {
		t.Fatalf("normalize filled %d profiles, want all %d", got, len(core.WorkloadKeys()))
	}
}

func TestShardRangePartitions(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4, 7, 16} {
		cfg := testConfig()
		cfg.Shards = shards
		next := 0
		for i := 0; i < shards; i++ {
			lo, hi := cfg.ShardRange(i)
			if lo != next {
				t.Fatalf("shards=%d: shard %d starts at %d, want %d", shards, i, lo, next)
			}
			if hi < lo {
				t.Fatalf("shards=%d: shard %d range [%d,%d) inverted", shards, i, lo, hi)
			}
			next = hi
		}
		if next != cfg.Sessions {
			t.Fatalf("shards=%d: ranges cover %d sessions, want %d", shards, next, cfg.Sessions)
		}
	}
}

func TestPlansDeterministicAndBounded(t *testing.T) {
	cfg := testConfig()
	a, b := cfg.Plans(), cfg.Plans()
	if len(a) != cfg.Sessions {
		t.Fatalf("got %d plans, want %d", len(a), cfg.Sessions)
	}
	for s, p := range a {
		if b[s] != p {
			t.Fatalf("plans not deterministic at session %d: %+v vs %+v", s, p, b[s])
		}
		if p.Session != s {
			t.Errorf("plan %d carries session %d", s, p.Session)
		}
		if p.Frames < 1 || p.Frames > cfg.Stream.NumFrames {
			t.Errorf("session %d: frames %d outside [1,%d]", s, p.Frames, cfg.Stream.NumFrames)
		}
		if p.BandwidthScale < 0.5 || p.BandwidthScale >= 1.5 {
			t.Errorf("session %d: bandwidth scale %g outside [0.5,1.5)", s, p.BandwidthScale)
		}
		if p.JoinQ < 0 || p.JoinQ >= cfg.Horizon || p.LeaveQ <= p.JoinQ {
			t.Errorf("session %d: churn window [%d,%d) malformed", s, p.JoinQ, p.LeaveQ)
		}
		if p.Contenders < 1 || p.Contenders > delivery.MaxBottleneckSessions {
			t.Errorf("session %d: %d contenders outside [1,%d]", s, p.Contenders, delivery.MaxBottleneckSessions)
		}
		if p.Profile != "V1" && p.Profile != "V3" {
			t.Errorf("session %d: profile %q not drawn from the config list", s, p.Profile)
		}
	}
	// A different fleet seed must reshuffle at least one plan.
	cfg2 := cfg
	cfg2.Seed = 2
	if c := cfg2.Plans(); len(c) == len(a) {
		same := true
		for s := range a {
			if a[s] != c[s] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seed 1 and seed 2 derived identical plans")
		}
	}
}

func TestShardFingerprintSensitivity(t *testing.T) {
	cfg := testConfig()
	base := cfg.shardFingerprint(0, 0, 4)
	if cfg.shardFingerprint(0, 0, 4) != base {
		t.Fatal("fingerprint not deterministic")
	}
	if cfg.shardFingerprint(1, 4, 8) == base {
		t.Fatal("fingerprint ignores the shard range")
	}
	seed := cfg
	seed.Seed = 99
	if seed.shardFingerprint(0, 0, 4) == base {
		t.Fatal("fingerprint ignores the fleet seed")
	}
	// Workers and CheckpointEvery may change across a resume.
	topo := cfg
	topo.Workers, topo.CheckpointEvery = 7, 2
	if topo.shardFingerprint(0, 0, 4) != base {
		t.Fatal("fingerprint depends on workers or checkpoint grain")
	}
}

func TestCellSeedPerCell(t *testing.T) {
	cfg := testConfig()
	if cfg.cellSeed(0) == cfg.cellSeed(1) {
		t.Fatal("adjacent cells share a bottleneck seed")
	}
	if cfg.cellSeed(0) != cfg.cellSeed(0) {
		t.Fatal("cell seed not deterministic")
	}
	if cfg.cellSeed(0) < 0 {
		t.Fatal("cell seed negative")
	}
}

func TestSessionConfigDerivation(t *testing.T) {
	cfg := testConfig()
	cfg.Platform.Delivery = delivery.LTE()
	plans := cfg.Plans()
	var contended bool
	for _, p := range plans {
		sc := cfg.sessionConfig(p)
		if sc.Delivery.Seed != p.Seed {
			t.Fatalf("session %d: delivery seed %d, want plan seed %d", p.Session, sc.Delivery.Seed, p.Seed)
		}
		want := cfg.Platform.Delivery.BandwidthBps * p.BandwidthScale
		if diff := sc.Delivery.BandwidthBps - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("session %d: bandwidth %g, want %g", p.Session, sc.Delivery.BandwidthBps, want)
		}
		if p.Contenders > 1 {
			contended = true
			if sc.Delivery.Bottleneck.Sessions != p.Contenders {
				t.Fatalf("session %d: bottleneck %d sessions, want %d", p.Session, sc.Delivery.Bottleneck.Sessions, p.Contenders)
			}
			if sc.Delivery.Bottleneck.Seed != cfg.cellSeed(p.Cell) {
				t.Fatalf("session %d: bottleneck seed not the cell's", p.Session)
			}
		}
	}
	if !contended {
		t.Fatal("test fleet derived no contended sessions; cell/horizon too sparse")
	}
}

func TestAggregateTopologyInvariance(t *testing.T) {
	cfg := testConfig()
	cfg.Platform.Delivery = delivery.LTE()
	var want []byte
	for _, shards := range []int{1, 2, 4, 8} {
		for _, workers := range []int{0, 2, 5} {
			c := cfg
			c.Shards, c.Workers = shards, workers
			got := runCanonical(t, c, RunOptions{})
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Fatalf("aggregate differs at shards=%d workers=%d:\n%s\nvs\n%s", shards, workers, got, want)
			}
		}
	}
}
