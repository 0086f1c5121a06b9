// Package par is the deterministic parallel execution substrate: a bounded
// worker pool whose output never depends on the worker count, so any pool
// width produces bit-identical results to the sequential path.
//
// The rules that make that true, and that every caller must follow:
//
//   - Workers write results only into index-addressed slots they own
//     (out[i] for item i); no item ever aggregates into shared state.
//   - Any order-sensitive reduction happens in the caller, serially, in
//     item order, after the pool has joined.
//
// No static check proves the write-ownership rule. `go test -race` over the
// tests that drive each pool site with several workers, together with the
// tests that require a parallel run to be bit-identical to the sequential
// one, is what enforces it; this package keeps the pool itself small enough
// to audit by hand.
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

// Map runs fn(i) for every i in [0,n) across the pool, recovering panics
// into errors so one faulted item cannot take down a whole sweep. Workers
// pull items off an atomic cursor and write only errs[i], so results land
// in index order and output built from them stays deterministic regardless
// of goroutine scheduling. With one worker, or one item, everything runs
// inline on the caller.
func (p *Pool) Map(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	w := min(p.Workers(), n)
	if w <= 1 {
		for i := range errs {
			errs[i] = runIsolated(i, fn)
		}
		return errs
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for range w {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = runIsolated(i, fn)
			}
		}()
	}
	wg.Wait()
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
