package framebuf

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestPoolAcquireRelease(t *testing.T) {
	p := NewPool(0x1000, 0x100)
	s0, a0 := p.Acquire()
	s1, a1 := p.Acquire()
	if s0 == s1 || a0 == a1 {
		t.Fatalf("slots must differ: %d@%#x %d@%#x", s0, a0, s1, a1)
	}
	if a0 != 0x1000 || a1 != 0x1100 {
		t.Fatalf("addresses %#x %#x", a0, a1)
	}
	if p.InUse() != 2 || p.HighWater() != 2 {
		t.Fatalf("in use %d high %d", p.InUse(), p.HighWater())
	}
	p.Release(s0)
	if p.InUse() != 1 {
		t.Fatalf("in use %d", p.InUse())
	}
	// Freed slot is recycled before growing.
	s2, a2 := p.Acquire()
	if s2 != s0 || a2 != a0 {
		t.Fatalf("expected recycle of %d, got %d", s0, s2)
	}
	if p.HighWater() != 2 {
		t.Fatalf("high water %d", p.HighWater())
	}
}

func TestPoolHighWaterGrows(t *testing.T) {
	p := NewPool(0, 64)
	var slots []int
	for i := 0; i < 5; i++ {
		s, _ := p.Acquire()
		slots = append(slots, s)
	}
	if p.HighWater() != 5 {
		t.Fatalf("high water %d", p.HighWater())
	}
	for _, s := range slots {
		p.Release(s)
	}
	if p.InUse() != 0 {
		t.Fatal("slots leaked")
	}
	if p.SlotAddr(3) != 3*64 {
		t.Fatalf("slot addr %#x", p.SlotAddr(3))
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool(0, 64)
	s, _ := p.Acquire()
	p.Release(s)
	defer func() {
		if recover() == nil {
			t.Fatal("double release should panic")
		}
	}()
	p.Release(s)
}

func TestZeroSlotSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero slot size should panic")
		}
	}()
	NewPool(0, 0)
}

func TestLayoutStrings(t *testing.T) {
	if LayoutRaw.String() != "raw" || LayoutPtr.String() != "ptr" || LayoutPtrDigest.String() != "ptr+digest" {
		t.Fatal("layout names")
	}
	if RecFull.String() != "full" || RecPointer.String() != "ptr" || RecDigest.String() != "digest" {
		t.Fatal("record names")
	}
	if LayoutKind(9).String() == "" || RecordKind(9).String() == "" {
		t.Fatal("unknown names must be non-empty")
	}
}

func TestRegionsDisjoint(t *testing.T) {
	if !(RegionEncoded < RegionFrameBuffers && RegionFrameBuffers < RegionMachDumps) {
		t.Fatal("regions must be ordered")
	}
}

// TestPoolSnapshotRoundTrip restores a snapshot into a fresh pool, which
// must then snapshot identically and hand out the same slots in the same
// order as the original.
func TestPoolSnapshotRoundTrip(t *testing.T) {
	p := NewPool(0x1000, 0x100)
	var held []int
	for i := 0; i < 6; i++ {
		s, _ := p.Acquire()
		held = append(held, s)
	}
	p.Release(held[4])
	p.Release(held[1])
	st := p.Snapshot()
	if want := []int{0, 2, 3, 5}; !reflect.DeepEqual(st.InUse, want) {
		t.Fatalf("in-use %v, want sorted %v", st.InUse, want)
	}

	q := NewPool(0x1000, 0x100)
	if err := q.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q.Snapshot(), st) {
		t.Fatalf("restored pool snapshots as %+v, want %+v", q.Snapshot(), st)
	}
	if q.InUse() != 4 || q.HighWater() != 6 {
		t.Fatalf("in use %d high %d", q.InUse(), q.HighWater())
	}
	for i := 0; i < 3; i++ {
		ps, pa := p.Acquire()
		qs, qa := q.Acquire()
		if ps != qs || pa != qa {
			t.Fatalf("acquire %d: restored pool gave %d@%#x, original %d@%#x", i, qs, qa, ps, pa)
		}
	}
	// The snapshot owns its slices: the acquires above changed neither.
	if len(st.Free) != 2 || len(st.InUse) != 4 {
		t.Fatalf("snapshot changed under the pool: %+v", st)
	}
}

// TestPoolRestoreRejects feeds Restore one broken invariant at a time and
// requires an error that names it, leaving the pool untouched.
func TestPoolRestoreRejects(t *testing.T) {
	cases := []struct {
		name string
		st   PoolState
		want string
	}{
		{"negative cursor", PoolState{Next: -1}, "negative"},
		{"more slots than allocated", PoolState{Free: []int{0}, InUse: []int{1, 2}, Next: 2, HighWater: 2}, "exceed"},
		{"slot out of range", PoolState{Free: []int{3}, Next: 3}, "outside"},
		{"negative slot", PoolState{InUse: []int{-1}, Next: 2, HighWater: 1}, "outside"},
		{"slot listed twice", PoolState{Free: []int{1}, InUse: []int{1}, Next: 2, HighWater: 1}, "twice"},
		{"high water below in use", PoolState{InUse: []int{0, 1}, Next: 2, HighWater: 1}, "high water"},
	}
	for _, c := range cases {
		p := NewPool(0, 64)
		s, _ := p.Acquire()
		before := p.Snapshot()
		err := p.Restore(c.st)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error mentioning %q", c.name, err, c.want)
		}
		if !reflect.DeepEqual(p.Snapshot(), before) {
			t.Errorf("%s: a rejected restore changed the pool", c.name)
		}
		p.Release(s)
	}
}

// TestMabRecordJSONRoundTrip checks that omitting a zero Kind or Digest
// loses nothing: every record kind decodes to itself.
func TestMabRecordJSONRoundTrip(t *testing.T) {
	recs := []MabRecord{
		{Kind: RecFull, Ptr: 0x4000_0030},
		{Kind: RecPointer, Ptr: 0x4000_0000},
		{Kind: RecDigest, Ptr: 0x4040_0060, Digest: 0xDEADBEEF},
		{Kind: RecDigest, Ptr: 0x4080_0000}, // a zero digest
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(b), "Kind") != 3 || strings.Count(string(b), "Digest") != 1 {
		t.Errorf("zero Kind and Digest must be omitted: %s", b)
	}
	var got []MabRecord
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("round trip gave %+v, want %+v", got, recs)
	}
}
