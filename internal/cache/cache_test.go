package cache

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestShapeValidation(t *testing.T) {
	for _, bad := range []func(){
		func() { NewSetAssoc(0, 64, 4) },
		func() { NewSetAssoc(1000, 64, 4) },   // not divisible
		func() { NewSetAssoc(64*4*3, 64, 4) }, // 3 sets, not power of two
		func() { NewSetAssoc(63*4*4, 63, 4) }, // line not power of two
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic on bad shape")
				}
			}()
			bad()
		}()
	}
}

func TestBasicHitMiss(t *testing.T) {
	c := NewSetAssoc(1024, 64, 4) // 4 sets
	if res := c.Access(0, false); res.Hit {
		t.Fatal("cold access hit")
	}
	if res := c.Access(0, false); !res.Hit {
		t.Fatal("warm access missed")
	}
	if res := c.Access(32, false); !res.Hit {
		t.Fatal("same-line access missed")
	}
	s := c.Stats()
	if s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.HitRate() != 2.0/3 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewSetAssoc(2*64*2, 64, 2) // 2 sets, 2 ways
	// Set 0 receives line addresses 0, 128, 256 (stride = sets*line = 128).
	c.Access(0, false)
	c.Access(128, false)
	c.Access(0, false)   // touch 0, making 128 the LRU way
	c.Access(256, false) // evicts 128
	if !resident(c, 0) {
		t.Fatal("line 0 should survive")
	}
	if resident(c, 128) {
		t.Fatal("line 128 should be evicted")
	}
	if !resident(c, 256) {
		t.Fatal("line 256 should be resident")
	}
	if c.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", c.Stats().Evictions)
	}
}

// resident reports whether addr's line is in the tag store, without
// touching recency order or stats.
func resident(c *SetAssoc, addr uint64) bool {
	setIdx, tag := c.set(addr)
	for _, w := range c.lines[setIdx*c.ways : setIdx*c.ways+c.used[setIdx]] {
		if w.tag == tag {
			return true
		}
	}
	return false
}

func TestDirtyWriteback(t *testing.T) {
	c := NewSetAssoc(2*64*1, 64, 1) // direct-mapped, 2 sets
	c.Access(0, true)               // dirty
	res := c.Access(128, false)     // conflicts with set 0
	if !res.Writeback {
		t.Fatal("expected writeback of dirty victim")
	}
	if res.WritebackAddr != 0 {
		t.Fatalf("writeback addr = %#x", res.WritebackAddr)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Stats().Writebacks)
	}
}

func TestFullyResidentWorkingSet(t *testing.T) {
	// A working set equal to capacity must fully hit after one pass,
	// regardless of access order (property over permutations).
	f := func(seed int64) bool {
		c := NewSetAssoc(4096, 64, 4)
		rng := rand.New(rand.NewSource(seed))
		addrs := make([]uint64, 64)
		for i := range addrs {
			addrs[i] = uint64(i * 64)
		}
		rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
		for _, a := range addrs {
			c.Access(a, false)
		}
		for _, a := range addrs {
			if !c.Access(a, false).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLinesFor(t *testing.T) {
	cases := []struct {
		addr, size uint64
		want       []uint64
	}{
		{0, 48, []uint64{0}},
		{32, 48, []uint64{0, 64}}, // the paper's fragmentation case: 48B mab straddles a line
		{64, 64, []uint64{64}},
		{60, 8, []uint64{0, 64}},
		{0, 0, nil},
		{130, 200, []uint64{128, 192, 256, 320}},
	}
	for _, c := range cases {
		if got := linesFor(c.addr, c.size, 64); !slices.Equal(got, c.want) {
			t.Errorf("linesFor(%d,%d) = %v want %v", c.addr, c.size, got, c.want)
		}
		if got := spanLines(t, c.addr, c.size, 64); !slices.Equal(got, c.want) {
			t.Errorf("LineSpan(%d,%d) visits %v want %v", c.addr, c.size, got, c.want)
		}
	}
}

// spanLines materializes the lines a LineSpan loop visits and checks
// LineSpan's count against the visit.
func spanLines(t *testing.T, addr, size, lineSize uint64) []uint64 {
	t.Helper()
	first, last, n := LineSpan(addr, size, lineSize)
	var out []uint64
	for a := first; n > 0 && a <= last; a += lineSize {
		out = append(out, a)
	}
	if len(out) != n {
		t.Fatalf("LineSpan(%#x,%d,%d) counts %d lines, visits %d", addr, size, lineSize, n, len(out))
	}
	return out
}

func TestLineSpanMatchesLinesFor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, lineSize := range []uint64{16, 32, 64, 128, 256} {
		for i := 0; i < 2000; i++ {
			addr := rng.Uint64() >> uint(1+rng.Intn(63)) // below 2^63: no wrap
			size := uint64(rng.Intn(4 * int(lineSize)))
			if got, want := spanLines(t, addr, size, lineSize), linesFor(addr, size, lineSize); !slices.Equal(got, want) {
				t.Fatalf("LineSpan(%#x,%d,%d) visits %v, linesFor %v", addr, size, lineSize, got, want)
			}
		}
	}
}

func TestMissRateDropsWithCapacity(t *testing.T) {
	// Larger caches must not have higher miss rates on a looping stream —
	// the Fig 7a sweep depends on this monotonicity for the compute phase.
	stream := make([]uint64, 0, 4000)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4000; i++ {
		stream = append(stream, uint64(rng.Intn(512))*64) // 32KB working set
	}
	prev := 1.1
	for _, kb := range []int{8, 16, 32, 64} {
		c := NewSetAssoc(kb*1024, 64, 4)
		for _, a := range stream {
			c.Access(a, false)
		}
		s := c.Stats()
		mr := float64(s.Misses) / float64(s.Accesses())
		if mr > prev+1e-9 {
			t.Fatalf("miss rate rose with capacity: %v at %dKB (prev %v)", mr, kb, prev)
		}
		prev = mr
	}
}
