// Package par is the deterministic parallel execution substrate: a bounded
// worker pool whose work division never depends on the worker count, so any
// pool width produces bit-identical output to the sequential path.
//
// The rules that make that true, and that every caller must follow:
//
//   - Work is divided into shards whose boundaries are a pure function of
//     the item count and a fixed grain — never of the number of workers or
//     of runtime scheduling (Shards).
//   - Workers write results only into index-addressed slots they own
//     (out[i] for item i); no shard ever aggregates into shared state.
//   - Any order-sensitive reduction happens in the caller, serially, in
//     item order, after the pool has joined.
//
// machlint's determinism analyzer enforces the write-ownership rule for
// goroutines it can see syntactically; this package keeps the pool itself
// small enough to audit by hand.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a bounded worker pool. Pools are stateless between calls and safe
// for concurrent use; a nil *Pool runs everything inline on the caller.
type Pool struct {
	workers int
}

// New returns a pool of the given width. Widths below 1 select
// runtime.GOMAXPROCS(0), so New(0) is "use the machine".
func New(workers int) *Pool {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers < 1 {
		workers = 1
	}
	return &Pool{workers: workers}
}

// Workers returns the pool width; 1 for a nil pool.
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// Shard is one contiguous range [Lo,Hi) of work items.
type Shard struct {
	Lo, Hi int
}

// Shards partitions [0,n) into ceil(n/grain) contiguous ranges of grain
// items each (the last may be short). The boundaries depend only on n and
// grain — never on the worker count — which is what keeps shard-local
// computation (hash streaming, scratch reuse) bit-identical whether the
// shards run on one worker or sixteen.
func Shards(n, grain int) []Shard {
	if grain < 1 {
		grain = 1
	}
	if n <= 0 {
		return nil
	}
	out := make([]Shard, 0, (n+grain-1)/grain)
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		out = append(out, Shard{Lo: lo, Hi: hi})
	}
	return out
}

// ForShards runs fn over every shard of [0,n), distributing shards to
// workers via an atomic cursor. worker is a stable id in [0,Workers()) for
// per-worker scratch buffers; fn must only write state owned by the shard
// (index-addressed output slots) or by the worker (scratch). With one
// worker, or one shard, everything runs inline on the caller.
//
// A panic in fn is re-raised on the caller after all workers have joined,
// so a bug cannot crash the process from an anonymous goroutine.
func (p *Pool) ForShards(n, grain int, fn func(lo, hi, worker int)) {
	if grain < 1 {
		grain = 1
	}
	if n <= 0 {
		return
	}
	shards := (n + grain - 1) / grain
	if p.Workers() == 1 || shards == 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi, 0)
		}
		return
	}
	w := p.workers
	if w > shards {
		w = shards
	}
	// The fan-out below allocates per call (channel, goroutine stacks,
	// closures) by design: it is the parallel dispatch path, and its cost is
	// amortized over the shard work it schedules. The sequential engine —
	// the configuration the 0-allocs StepFrame test in internal/core
	// measures — takes the inline path above and never reaches it.
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		//lint:ignore allocheck one channel per parallel fan-out, amortized over the shard work it collects panics from
		panics = make(chan any, w)
	)
	for id := 0; id < w; id++ {
		wg.Add(1)
		//lint:ignore allocheck worker launch of the parallel dispatch path; the sequential engine takes the inline path above
		go func(id int) {
			defer wg.Done()
			//lint:ignore allocheck recover trampoline closure, one per worker per fan-out by design
			defer func() {
				if r := recover(); r != nil {
					panics <- r
				}
			}()
			for {
				s := int(next.Add(1)) - 1
				if s >= shards {
					return
				}
				lo := s * grain
				hi := lo + grain
				if hi > n {
					hi = n
				}
				fn(lo, hi, id)
			}
		}(id)
	}
	wg.Wait()
	select {
	case r := <-panics:
		panic(r)
	default:
	}
}

// Map runs fn(i) for every i in [0,n) across the pool, recovering panics
// into errors so one faulted item cannot take down a whole sweep. Results
// land in index order, so output built from them stays deterministic
// regardless of goroutine scheduling. This is the bounded successor of the
// experiment layer's unbounded fan-out.
func (p *Pool) Map(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	p.ForShards(n, 1, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			errs[i] = runIsolated(i, fn)
		}
	})
	return errs
}

func runIsolated(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return fn(i)
}
