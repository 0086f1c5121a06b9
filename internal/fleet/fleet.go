// Package fleet scales the single-device pipeline to a population: a sharded
// supervisor runs N lightweight viewer sessions — distinct workload profiles,
// per-session seeds derived splitmix-style from one fleet seed, join/leave
// churn, optional shared-bottleneck contention — over the deterministic
// par.Pool, and reduces the per-session results to population-level
// energy/QoE distributions (DESIGN.md "Fleet supervision").
//
// Robustness is the package's contract:
//
//   - a panicking session is quarantined with its error recorded in the
//     aggregate, never taking down its shard;
//   - every shard saves a manifest in the checkpoint container format
//     (magic/version/fingerprint/CRC, atomic rename writes) at each
//     committed chunk, so a killed fleet run resumes from the surviving
//     shards to an aggregate bit-identical to an uninterrupted run. A kill
//     is the only way to interrupt a run; there is no in-process stop.
//
// Everything a session does is a pure function of (Config, session index),
// so the aggregate is invariant under shard count, worker count, and session
// permutation — the property the tests pin down.
package fleet

import (
	"crypto/md5"
	"encoding/json"
	"fmt"

	"mach/internal/checkpoint"
	"mach/internal/core"
	"mach/internal/delivery"
	"mach/internal/hashes"
	"mach/internal/video"
)

// FormatVersion versions the shard manifest payload schema. Bump on any
// incompatible change to shardState; loads reject other versions.
const FormatVersion = 1

// Config describes one fleet run. The zero value is unusable; start from
// Default.
type Config struct {
	// Sessions is the fleet population size.
	Sessions int
	// Seed drives every per-session derivation (profile pick, session
	// length, churn window, delivery seed, bandwidth scale).
	Seed int64
	// Shards is the number of independently crash-safe session ranges the
	// population is split into; each shard owns a contiguous range and its
	// own manifest file.
	Shards int
	// Workers is the par.Pool width sessions fan out over; 0 = GOMAXPROCS.
	// It trades wall clock only — the aggregate is bit-identical at any
	// width.
	Workers int
	// CheckpointEvery is the shard commit grain in sessions: a shard runs
	// this many sessions at a time, commits them in session order, and
	// rewrites its manifest.
	CheckpointEvery int

	// Scheme is the design point every session runs.
	Scheme core.Scheme
	// Stream is the content scale; NumFrames is a full-length session, and
	// churn buckets sessions to 1/2, 3/4, or all of it.
	Stream video.StreamConfig
	// Platform is the device configuration template; per-session delivery
	// seeds, bandwidth scales, and bottleneck cells are derived on top of
	// it (sessionConfig).
	Platform core.Config

	// Profiles are the workload keys sessions draw from; empty selects all
	// 16 Table 1 profiles.
	Profiles []string
	// CellSize groups consecutive sessions into shared-bottleneck cells:
	// sessions in one cell whose churn windows overlap contend for one
	// last-mile link (requires Platform.Delivery.Enabled). 0 or 1 disables
	// contention.
	CellSize int
	// Horizon is the churn timeline length in join quanta; each session
	// joins at a hashed quantum and stays for as many quanta as its length
	// bucket spans.
	Horizon int
}

// Default returns a small smoke-scale fleet over the headline GAB scheme.
func Default() Config {
	return Config{
		Sessions:        64,
		Seed:            1,
		Shards:          4,
		Workers:         0,
		CheckpointEvery: 16,
		Scheme:          core.GAB(core.DefaultBatch),
		Stream:          video.DefaultStreamConfig(),
		Platform:        core.DefaultConfig(),
		CellSize:        8,
		Horizon:         16,
	}
}

// normalize fills derivable defaults (the profile list).
func (c Config) normalize() Config {
	if len(c.Profiles) == 0 {
		c.Profiles = core.WorkloadKeys()
	}
	return c
}

// Validate reports malformed fleet configurations.
func (c Config) Validate() error {
	switch {
	case c.Sessions < 1 || c.Sessions > 1<<24:
		return fmt.Errorf("fleet: sessions %d outside [1,%d]", c.Sessions, 1<<24)
	case c.Shards < 1 || c.Shards > 4096:
		return fmt.Errorf("fleet: shards %d outside [1,4096]", c.Shards)
	case c.Workers < 0 || c.Workers > 256:
		return fmt.Errorf("fleet: workers %d outside [0,256]", c.Workers)
	case c.CheckpointEvery < 1:
		return fmt.Errorf("fleet: checkpoint grain %d < 1", c.CheckpointEvery)
	case c.CellSize < 0 || c.CellSize > 4096:
		return fmt.Errorf("fleet: cell size %d outside [0,4096]", c.CellSize)
	case c.Horizon < 1 || c.Horizon > 1<<20:
		return fmt.Errorf("fleet: churn horizon %d outside [1,%d]", c.Horizon, 1<<20)
	}
	if err := c.Scheme.Validate(); err != nil {
		return err
	}
	if err := c.Stream.Validate(); err != nil {
		return err
	}
	if err := c.Platform.Validate(); err != nil {
		return err
	}
	for _, key := range c.normalize().Profiles {
		if _, err := video.ProfileByKey(key); err != nil {
			return fmt.Errorf("fleet: profile %q: %w", key, err)
		}
	}
	return nil
}

// ShardRange returns the contiguous session range [lo,hi) shard i owns. The
// split depends only on (Sessions, Shards), never on workers or scheduling.
func (c Config) ShardRange(i int) (lo, hi int) {
	return i * c.Sessions / c.Shards, (i + 1) * c.Sessions / c.Shards
}

// Plan is everything one session's run derives from the fleet config: a pure
// function of (Config, session index), so plans never depend on sharding,
// workers, or execution order.
type Plan struct {
	// Session is the absolute session index in [0, Sessions).
	Session int
	// Profile is the workload key this viewer watches.
	Profile string
	// Frames is the session length: a churn bucket of 1/2, 3/4, or all of
	// Stream.NumFrames, so at most three trace lengths exist per profile.
	Frames int
	// Seed is the per-session delivery seed.
	Seed int64
	// BandwidthScale perturbs the link bandwidth in [0.5, 1.5).
	BandwidthScale float64
	// JoinQ/LeaveQ bound the session's churn window on the fleet horizon.
	JoinQ, LeaveQ int
	// Cell is the shared-bottleneck cell index; Contenders is how many cell
	// members' churn windows overlap this session's (including itself),
	// clamped to the delivery bottleneck cap.
	Cell       int
	Contenders int
}

// sessionHash returns the k-th derived word of session s's hash chain.
func (c Config) sessionHash(s, k int) uint64 {
	h := hashes.SplitMix64(uint64(c.Seed) ^ uint64(s)*0x9e3779b97f4a7c15)
	for i := 0; i <= k; i++ {
		h = hashes.SplitMix64(h)
	}
	return h
}

// cellSeed derives the shared bottleneck seed for one cell, so every member
// of the cell observes the same background-activity schedule.
func (c Config) cellSeed(cell int) int64 {
	return int64(hashes.SplitMix64(uint64(c.Seed)^0xf1ee7^uint64(cell)*0x9e3779b97f4a7c15) >> 1)
}

// Plans derives every session's plan. The churn overlap scan is local to
// each cell (cells are contiguous index blocks), so the whole derivation is
// O(Sessions * CellSize).
func (c Config) Plans() []Plan {
	c = c.normalize()
	plans := make([]Plan, c.Sessions)
	for s := range plans {
		quarters := 2 + int(c.sessionHash(s, 1)%3) // 2, 3, or 4 quarters
		frames := c.Stream.NumFrames * quarters / 4
		if frames < 1 {
			frames = 1
		}
		join := int(c.sessionHash(s, 2) % uint64(c.Horizon))
		cell := 0
		if c.CellSize > 1 {
			cell = s / c.CellSize
		}
		plans[s] = Plan{
			Session:        s,
			Profile:        c.Profiles[c.sessionHash(s, 0)%uint64(len(c.Profiles))],
			Frames:         frames,
			Seed:           int64(c.sessionHash(s, 3) >> 1),
			BandwidthScale: 0.5 + float64(c.sessionHash(s, 4)%1024)/1024,
			JoinQ:          join,
			LeaveQ:         join + quarters,
			Cell:           cell,
			Contenders:     1,
		}
	}
	if c.CellSize > 1 {
		for s := range plans {
			p := &plans[s]
			lo := p.Cell * c.CellSize
			hi := min(lo+c.CellSize, c.Sessions)
			n := 0
			for t := lo; t < hi; t++ {
				q := &plans[t]
				if q.JoinQ < p.LeaveQ && p.JoinQ < q.LeaveQ {
					n++
				}
			}
			p.Contenders = min(n, delivery.MaxBottleneckSessions)
		}
	}
	return plans
}

// shardFingerprint identifies the (fleet config, shard range) a manifest
// belongs to: md5 over the canonical JSON of everything that shapes session
// results. Workers and CheckpointEvery are deliberately excluded — both may
// vary across a resume without changing any session's outcome.
func (c Config) shardFingerprint(shard, lo, hi int) checkpoint.Fingerprint {
	c = c.normalize()
	id := struct {
		Format        int
		Sessions      int
		Seed          int64
		Shards        int
		Scheme        core.Scheme
		Stream        video.StreamConfig
		Platform      core.Config
		Profiles      []string
		CellSize      int
		Horizon       int
		Shard, Lo, Hi int
	}{FormatVersion, c.Sessions, c.Seed, c.Shards, c.Scheme, c.Stream, c.Platform,
		c.Profiles, c.CellSize, c.Horizon, shard, lo, hi}
	b, err := json.Marshal(id)
	if err != nil {
		// Every identity field is a plain exported value; this cannot fail
		// for a validated config.
		panic(fmt.Sprintf("fleet: fingerprint marshal: %v", err))
	}
	return checkpoint.Fingerprint(md5.Sum(b))
}
