package fleet

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sync/atomic"
	"time"

	"mach/internal/checkpoint"
	"mach/internal/core"
	"mach/internal/par"
	"mach/internal/trace"
)

// ErrInterrupted is returned by Run when the Stop channel fired: every
// committed chunk is flushed to its shard manifest, and a later Resume
// continues bit-identically.
var ErrInterrupted = errors.New("fleet: interrupted, shard manifests flushed")

// ErrConfig wraps configuration validation failures, so callers can map them
// to a usage exit instead of a runtime one.
var ErrConfig = errors.New("fleet: invalid config")

// errStalled signals the monitor's verdict on an aborted attempt internally.
var errStalled = errors.New("fleet: shard stalled")

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
	hooks  Hooks
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
	// Watchdog configures stall detection; requires Clock and Sleep.
	Watchdog WatchdogConfig
	// Clock returns monotonic elapsed time; Sleep blocks for a duration.
	// Injected so the fleet package never reads the wall clock itself —
	// cmd/machfleet passes the real ones, tests pass fakes.
	Clock func() time.Duration
	Sleep func(time.Duration)
	// Stop, when it becomes readable, gracefully interrupts the run: the
	// in-flight chunk is aborted and discarded, manifests already reflect
	// every committed chunk, and Run returns ErrInterrupted.
	Stop <-chan struct{}
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

// Run executes every shard in order, each independently crash-safe, and
// reduces the committed outcomes to the population aggregate. Shards run
// sequentially — parallelism lives inside the shard, where sessions fan out
// over the pool — so the machine is never oversubscribed and progress has
// one writer per attempt.
func (s *Supervisor) Run(opts RunOptions) (*Aggregate, error) {
	wd := opts.Watchdog.normalize()
	if err := opts.Watchdog.Validate(); err != nil {
		return nil, err
	}
	if wd.Enabled() && (opts.Clock == nil || opts.Sleep == nil) {
		return nil, fmt.Errorf("fleet: watchdog needs Clock and Sleep injected")
	}
	s.hooks = opts.Hooks
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

	restarts := 0
	for _, sr := range shards {
		r, err := s.runShard(sr, opts, wd, logf)
		restarts += r
		if err != nil {
			return nil, err
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
	return s.aggregate(shards, restarts), nil
}

// runShard drives one shard to completion through watchdog restarts,
// returning how many restarts it took.
func (s *Supervisor) runShard(sr *shardRun, opts RunOptions, wd WatchdogConfig, logf func(string, ...any)) (restarts int, err error) {
	attempt := 0
	for !sr.done() {
		err := s.runAttempt(sr, opts, wd, attempt)
		switch {
		case err == nil:
			// Shard complete.
		case errors.Is(err, errStalled):
			if attempt >= wd.MaxRestarts {
				return restarts, fmt.Errorf("fleet: shard %d still stalled after %d restarts", sr.shard, attempt)
			}
			backoff := wd.backoff(attempt)
			logf("fleet: shard %d stalled at session %d, restarting (attempt %d) after %v",
				sr.shard, sr.next, attempt+1, backoff)
			opts.Sleep(backoff)
			attempt++
			restarts++
		default:
			return restarts, err
		}
	}
	return restarts, nil
}

// runAttempt runs one shard attempt in a worker goroutine while the monitor
// loop watches progress, the watchdog deadline, and the stop channel. The
// attempt goroutine owns the shard state; the monitor reads only the atomic
// progress counter and the abort flag.
func (s *Supervisor) runAttempt(sr *shardRun, opts RunOptions, wd WatchdogConfig, attempt int) error {
	var abort atomic.Bool
	var progress atomic.Int64
	progress.Store(int64(sr.next))
	done := make(chan error, 1)
	go func(sr *shardRun, attempt int, abort *atomic.Bool, progress *atomic.Int64) {
		done <- s.driveShard(sr, opts.Dir, attempt, abort, progress)
	}(sr, attempt, &abort, &progress)

	// The ticker goroutine exists only to turn the injected Sleep into a
	// channel the monitor can select on; it never touches shared state.
	var tick chan struct{}
	var tickStop chan struct{}
	if wd.Enabled() {
		tick = make(chan struct{}, 1)
		tickStop = make(chan struct{})
		go func(sleep func(time.Duration), d time.Duration, tick chan struct{}, stop chan struct{}) {
			for {
				sleep(d)
				select {
				case <-stop:
					return
				case tick <- struct{}{}:
				default:
				}
			}
		}(opts.Sleep, wd.Tick, tick, tickStop)
		defer close(tickStop)
	}

	dog := watchdog{cfg: wd}
	if wd.Enabled() {
		dog.launched(progress.Load(), opts.Clock())
	}
	for {
		select {
		case err := <-done:
			if errors.Is(err, ErrAborted) {
				// The only aborter on this path is the stop channel (a
				// watchdog abort returns via the stalled branch below).
				return ErrInterrupted
			}
			return err
		case <-tick:
			if dog.stalled(progress.Load(), opts.Clock()) {
				abort.Store(true)
				<-done // join the aborted attempt; the chunk was discarded
				return errStalled
			}
		case <-opts.Stop:
			abort.Store(true)
			<-done
			return ErrInterrupted
		}
	}
}

// driveShard is the attempt goroutine body: run chunks, commit, persist the
// manifest, publish progress. Returns ErrAborted when the abort flag cut a
// chunk short (the monitor decides what that means).
func (s *Supervisor) driveShard(sr *shardRun, dir string, attempt int, abort *atomic.Bool, progress *atomic.Int64) error {
	for !sr.done() {
		if sr.runChunk(s, attempt, abort) {
			return ErrAborted
		}
		if dir != "" {
			if err := sr.saveManifest(dir, s.cfg.shardFingerprint(sr.shard, sr.lo, sr.hi)); err != nil {
				return err
			}
		}
		progress.Store(int64(sr.next))
	}
	return nil
}
