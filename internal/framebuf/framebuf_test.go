package framebuf

import "testing"

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
