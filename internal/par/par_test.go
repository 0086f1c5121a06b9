package par

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestForShardsCoversEveryIndexOnce is the ownership invariant of Map, the
// pool's one fan-out since it absorbed the range-sharded ForShards: every
// item is visited exactly once, whatever the pool width.
func TestForShardsCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 3, 8, 64} {
		visits := make([]int32, n)
		errs := New(workers).Map(n, func(i int) error {
			atomic.AddInt32(&visits[i], 1)
			return nil
		})
		if len(errs) != n {
			t.Fatalf("workers=%d: %d errors, want %d", workers, len(errs), n)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
			if errs[i] != nil {
				t.Fatalf("workers=%d: errs[%d] = %v", workers, i, errs[i])
			}
		}
	}
	if errs := New(4).Map(0, func(int) error { return errors.New("ran") }); len(errs) != 0 {
		t.Fatalf("Map(0) returned %d errors", len(errs))
	}
}

// TestForShardsDeterministicOutput checks the contract the simulation relies
// on: Map's index-slot writes produce identical output for every worker
// count.
func TestForShardsDeterministicOutput(t *testing.T) {
	const n = 513
	fill := func(workers int) []uint64 {
		out := make([]uint64, n)
		New(workers).Map(n, func(i int) error {
			out[i] = uint64(i) * 2654435761
			return nil
		})
		return out
	}
	ref := fill(1)
	for i, v := range ref {
		if v != uint64(i)*2654435761 {
			t.Fatalf("workers=1: out[%d]=%d", i, v)
		}
	}
	for _, workers := range []int{2, 5, 16} {
		out := fill(workers)
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, out[i], ref[i])
			}
		}
	}
}

func TestMapIndexOrderAndIsolation(t *testing.T) {
	p := New(4)
	errs := p.Map(10, func(i int) error {
		switch i {
		case 3:
			return errors.New("three")
		case 7:
			panic("seven")
		}
		return nil
	})
	if len(errs) != 10 {
		t.Fatalf("got %d errors, want 10", len(errs))
	}
	for i, err := range errs {
		switch i {
		case 3:
			if err == nil || err.Error() != "three" {
				t.Errorf("errs[3] = %v, want three", err)
			}
		case 7:
			if err == nil || !strings.Contains(err.Error(), "panic: seven") {
				t.Errorf("errs[7] = %v, want recovered panic", err)
			}
		default:
			if err != nil {
				t.Errorf("errs[%d] = %v, want nil", i, err)
			}
		}
	}
}

// TestMapRunsItemsConcurrently gives Map as many items as the pool is wide,
// each blocking until all of them have started: the pool must run them at
// once, on distinct goroutines, so `go test -race` sees any shared write the
// dispatch path makes.
func TestMapRunsItemsConcurrently(t *testing.T) {
	const workers = 4
	var started atomic.Int32
	all := make(chan struct{})
	errs := New(workers).Map(workers, func(i int) error {
		if started.Add(1) == workers {
			close(all)
		}
		select {
		case <-all:
			return nil
		case <-time.After(10 * time.Second):
			return fmt.Errorf("item %d: only %d of %d items started", i, started.Load(), workers)
		}
	})
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	sum := 0 // unsynchronized: the race detector holds Map to running inline
	p.Map(10, func(i int) error {
		sum += i
		return nil
	})
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
}

func TestNewClampsWidth(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("New(0) produced an empty pool")
	}
	if got := New(5).Workers(); got != 5 {
		t.Fatalf("New(5).Workers() = %d", got)
	}
}
