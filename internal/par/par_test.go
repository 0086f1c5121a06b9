package par

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestShardsStableBoundaries(t *testing.T) {
	cases := []struct {
		n, grain int
		want     []Shard
	}{
		{0, 4, nil},
		{-3, 4, nil},
		{1, 4, []Shard{{0, 1}}},
		{4, 4, []Shard{{0, 4}}},
		{5, 4, []Shard{{0, 4}, {4, 5}}},
		{10, 3, []Shard{{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
		{3, 0, []Shard{{0, 1}, {1, 2}, {2, 3}}}, // grain clamps to 1
	}
	for _, c := range cases {
		got := Shards(c.n, c.grain)
		if len(got) != len(c.want) {
			t.Fatalf("Shards(%d,%d) = %v, want %v", c.n, c.grain, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("Shards(%d,%d) = %v, want %v", c.n, c.grain, got, c.want)
			}
		}
	}
}

// TestForShardsCoversEveryIndexOnce is the ownership invariant: every item
// is visited exactly once, whatever the pool width.
func TestForShardsCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 3, 8, 64} {
		p := New(workers)
		visits := make([]int32, n)
		p.ForShards(n, 7, func(lo, hi, worker int) {
			if worker < 0 || worker >= p.Workers() {
				t.Errorf("worker id %d outside [0,%d)", worker, p.Workers())
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, v)
			}
		}
	}
}

// TestForShardsDeterministicOutput checks the contract the simulation relies
// on: index-slot writes produce identical output for every worker count.
func TestForShardsDeterministicOutput(t *testing.T) {
	const n = 513
	ref := make([]uint64, n)
	New(1).ForShards(n, 16, func(lo, hi, _ int) {
		for i := lo; i < hi; i++ {
			ref[i] = uint64(i) * 2654435761
		}
	})
	for _, workers := range []int{2, 5, 16} {
		out := make([]uint64, n)
		New(workers).ForShards(n, 16, func(lo, hi, _ int) {
			for i := lo; i < hi; i++ {
				out[i] = uint64(i) * 2654435761
			}
		})
		for i := range out {
			if out[i] != ref[i] {
				t.Fatalf("workers=%d: out[%d]=%d, want %d", workers, i, out[i], ref[i])
			}
		}
	}
}

func TestForShardsPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic did not propagate to the caller")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	New(4).ForShards(100, 1, func(lo, _, _ int) {
		if lo == 41 {
			panic("boom 41")
		}
	})
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

func TestNilPoolRunsInline(t *testing.T) {
	var p *Pool
	if got := p.Workers(); got != 1 {
		t.Fatalf("nil pool Workers() = %d, want 1", got)
	}
	sum := 0
	p.ForShards(10, 3, func(lo, hi, worker int) {
		if worker != 0 {
			t.Errorf("nil pool used worker %d", worker)
		}
		for i := lo; i < hi; i++ {
			sum += i
		}
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
