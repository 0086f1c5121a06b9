// Package experiments regenerates every table and figure of the paper's
// motivation and evaluation sections (the per-experiment index lives in
// DESIGN.md). Each experiment returns a stats.Table whose rows mirror the
// series the paper plots; cmd/report prints them and bench_test.go wraps
// them as benchmarks.
//
// Scale note: experiments run the synthetic workloads at a configurable
// resolution (default 320x180) instead of the paper's 3840x2160, with DRAM
// per-operation energies calibrated so the baseline energy shares match the
// paper (see EXPERIMENTS.md). All reported quantities are ratios or
// normalized series, which is what the paper's figures show.
package experiments

import (
	"fmt"
	"sync"

	"mach/internal/core"
	"mach/internal/energy"
	"mach/internal/par"
	"mach/internal/sim"
	"mach/internal/trace"
	"mach/internal/video"
)

// Config scales the experiment suite.
type Config struct {
	Stream   video.StreamConfig
	Platform core.Config
	// Videos selects the workload subset for multi-video experiments
	// (default: all 16).
	Videos []string
	// Workers bounds the sweep fan-out: multi-cell experiments run their
	// independent simulations over a shared pool of this width, with
	// results placed in index order so tables stay deterministic. 0
	// selects GOMAXPROCS.
	Workers int
}

// Default returns the standard experiment scale: every workload, 96 frames
// at 320x180.
func Default() Config {
	sc := video.DefaultStreamConfig()
	sc.NumFrames = 96
	return Config{
		Stream:   sc,
		Platform: core.DefaultConfig(),
		Videos:   core.WorkloadKeys(),
	}
}

// Quick returns a reduced scale for smoke tests: 4 workloads, 48 frames at
// 160x96.
func Quick() Config {
	c := Default()
	c.Stream.Width, c.Stream.Height, c.Stream.NumFrames = 160, 96, 48
	c.Videos = c.Videos[:4]
	return c
}

// TraceCache memoizes decoded workload traces so the many experiments that
// share a workload synthesize and decode it once, and share its digest
// tables. Safe for concurrent use: concurrent callers of one cold key wait
// for a single build.
type TraceCache struct {
	mu     sync.Mutex
	traces map[string]*cacheEntry
}

// cacheEntry is one key's trace; done closes once tr and err are set.
type cacheEntry struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

// NewTraceCache returns an empty cache.
func NewTraceCache() *TraceCache {
	return &TraceCache{traces: make(map[string]*cacheEntry)}
}

func streamKey(profileKey string, sc video.StreamConfig) string {
	return fmt.Sprintf("%s/%dx%d/%d/%d/%d/%d", profileKey, sc.Width, sc.Height, sc.NumFrames, sc.Seed, sc.MabSize, sc.Quant)
}

// Get returns the trace for a workload at the given stream scale, building
// it on first use. A build's error is cached like its trace: builds are
// deterministic, so a retry would fail the same way.
func (tc *TraceCache) Get(profileKey string, sc video.StreamConfig) (*trace.Trace, error) {
	key := streamKey(profileKey, sc)
	tc.mu.Lock()
	e, ok := tc.traces[key]
	if !ok {
		e = &cacheEntry{done: make(chan struct{})}
		tc.traces[key] = e
	}
	tc.mu.Unlock()
	if ok {
		<-e.done
		return e.tr, e.err
	}
	defer close(e.done)
	e.err = fmt.Errorf("experiments: building %s panicked", key) // what waiters see if it does
	e.tr, e.err = core.BuildTrace(profileKey, sc)
	return e.tr, e.err
}

// Drop evicts one workload's trace (memory control in long sweeps).
func (tc *TraceCache) Drop(profileKey string, sc video.StreamConfig) {
	tc.mu.Lock()
	delete(tc.traces, streamKey(profileKey, sc))
	tc.mu.Unlock()
}

// SharedCache is the process-wide cache used by cmd/report and the
// benchmark harness.
var SharedCache = NewTraceCache()

// Runner bundles a configuration with the shared cache and the bounded
// pool its sweeps fan out over.
type Runner struct {
	Cfg   Config
	Cache *TraceCache
	pool  *par.Pool
}

// NewRunner returns a runner over the shared cache. The platform's cycle
// costs, DRAM per-operation energies and row-open timeout are calibrated at
// the reference resolution (320x180, 4x4 mabs = 3600 mabs/frame); the
// runner rescales them so per-frame decode times and energy shares are
// resolution-invariant (the same normalization the paper's 4K platform
// implies; see EXPERIMENTS.md).
func NewRunner(cfg Config) *Runner {
	const refMabs = 3600.0
	mabSize := cfg.Stream.MabSize
	if mabSize == 0 {
		mabSize = 4
	}
	mabs := float64(cfg.Stream.Width*cfg.Stream.Height) / float64(mabSize*mabSize)
	if mabs > 0 {
		f := refMabs / mabs
		d := &cfg.Platform.Decoder
		d.CyclesPerMabBase = sim.Cycles(float64(d.CyclesPerMabBase) * f)
		d.CyclesPerBit *= f
		d.CyclesPerCoef = sim.Cycles(float64(d.CyclesPerCoef)*f + 0.5)
		d.CyclesIntra = sim.Cycles(float64(d.CyclesIntra) * f)
		d.CyclesMC = sim.Cycles(float64(d.CyclesMC) * f)
		m := &cfg.Platform.DRAM
		m.EnergyActPre = energy.Joules(float64(m.EnergyActPre) * f)
		m.EnergyReadLine = energy.Joules(float64(m.EnergyReadLine) * f)
		m.EnergyWriteLine = energy.Joules(float64(m.EnergyWriteLine) * f)
		m.RowOpenTimeout = sim.Time(float64(m.RowOpenTimeout) * f)
	}
	return &Runner{Cfg: cfg, Cache: SharedCache, pool: par.New(cfg.Workers)}
}

// runIsolated executes fn(i) for every index in [0,n) over the runner's
// bounded pool, recovering panics into errors so a single faulted cell
// cannot take down a whole sweep. Results land in index order, so output
// built from them stays deterministic regardless of goroutine scheduling.
func (r *Runner) runIsolated(n int, fn func(i int) error) []error {
	return r.pool.Map(n, fn)
}

func (r *Runner) trace(key string) (*trace.Trace, error) {
	return r.Cache.Get(key, r.Cfg.Stream)
}

func (r *Runner) run(key string, s core.Scheme) (*core.Result, error) {
	tr, err := r.trace(key)
	if err != nil {
		return nil, err
	}
	return core.Run(tr, s, r.Cfg.Platform)
}

func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

func ratio(x, base float64) string {
	if base == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", x/base)
}
