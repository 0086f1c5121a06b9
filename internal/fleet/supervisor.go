package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"os"

	"mach/internal/checkpoint"
	"mach/internal/core"
	"mach/internal/par"
	"mach/internal/trace"
)

// ErrConfig wraps configuration validation failures, so callers can map them
// to a usage exit instead of a runtime one.
var ErrConfig = errors.New("fleet: invalid config")

// traceKey identifies one shared decode trace: churn buckets session lengths
// so at most three lengths exist per profile, and every session of a
// (profile, length) pair replays the same trace and shares its digest tables.
type traceKey struct {
	profile string
	frames  int
}

// Supervisor owns the derived fleet state: plans, the shared trace cache,
// and the worker pool. Build one with NewSupervisor, run it with Run.
type Supervisor struct {
	cfg    Config
	plans  []Plan
	traces map[traceKey]*trace.Trace
	pool   *par.Pool
}

// RunOptions carries one Run invocation's environment.
type RunOptions struct {
	// Dir is the shard manifest directory; empty disables checkpointing.
	Dir string
	// Resume loads surviving shard manifests from Dir before running. A
	// missing manifest starts that shard fresh; a corrupt or mismatched one
	// is logged and recomputed from scratch.
	Resume bool
	// Hooks intercept session execution (fault injection, tests).
	Hooks Hooks
	// Logf, when non-nil, receives progress and recovery lines.
	Logf func(format string, args ...any)
}

// NewSupervisor validates the config, derives every session plan, and
// synthesizes the shared trace cache. Traces build sequentially: at three
// lengths per profile the build is startup cost, not the hot path.
func NewSupervisor(cfg Config) (*Supervisor, error) {
	cfg = cfg.normalize()
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	s := &Supervisor{cfg: cfg, plans: cfg.Plans(), pool: par.New(cfg.Workers)}

	var keys []traceKey
	seen := make(map[traceKey]bool)
	for _, p := range s.plans {
		k := traceKey{p.Profile, p.Frames}
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	s.traces = make(map[traceKey]*trace.Trace, len(keys))
	for _, k := range keys {
		sc := cfg.Stream
		sc.NumFrames = k.frames
		tr, err := core.BuildTrace(k.profile, sc)
		if err != nil {
			return nil, fmt.Errorf("fleet: building trace %s/%d frames: %w", k.profile, k.frames, err)
		}
		s.traces[k] = tr
	}
	return s, nil
}

// Plans exposes the derived per-session plans (read-only).
func (s *Supervisor) Plans() []Plan { return s.plans }

// traceFor returns the shared trace a plan replays. Concurrent runs share
// it, and fill its digest tables together, exactly like the experiment
// sweeps.
func (s *Supervisor) traceFor(p Plan) *trace.Trace {
	return s.traces[traceKey{p.Profile, p.Frames}]
}

// Run executes every shard in order and reduces the committed outcomes to
// the population aggregate. Each shard runs a chunk of sessions over the
// pool, commits it in session order and, with Dir set, saves its manifest
// before the next chunk starts, so a run killed at any instant resumes from
// the manifests on disk. Shards run one after another, so parallelism lives
// inside the chunk and the machine is never oversubscribed.
func (s *Supervisor) Run(opts RunOptions) (*Aggregate, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	shards := make([]*shardRun, s.cfg.Shards)
	for i := range shards {
		lo, hi := s.cfg.ShardRange(i)
		sr := newShardRun(i, lo, hi, s.plans)
		if opts.Dir != "" && opts.Resume {
			err := sr.loadManifest(opts.Dir, s.cfg.shardFingerprint(i, lo, hi))
			switch {
			case err == nil:
				logf("fleet: shard %d resumed at session %d of [%d,%d)", i, sr.next, lo, hi)
			case errors.Is(err, fs.ErrNotExist):
				// Fresh shard: the run never got this far.
			case errors.Is(err, checkpoint.ErrCorrupt):
				logf("fleet: shard %d manifest corrupt, recomputing: %v", i, err)
				sr = newShardRun(i, lo, hi, s.plans)
			default:
				return nil, err
			}
		}
		shards[i] = sr
	}

	for _, sr := range shards {
		for !sr.done() {
			sr.runChunk(s, opts.Hooks.SessionStart)
			if opts.Dir != "" {
				if err := sr.saveManifest(opts.Dir, s.cfg.shardFingerprint(sr.shard, sr.lo, sr.hi)); err != nil {
					return nil, err
				}
			}
		}
	}

	if opts.Dir != "" {
		// Success removes the manifests; a leftover set would invite
		// resuming a finished run.
		for i := range shards {
			if err := os.Remove(ManifestPath(opts.Dir, i)); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return nil, err
			}
		}
	}
	return s.aggregate(shards), nil
}
