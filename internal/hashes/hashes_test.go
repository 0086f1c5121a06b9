package hashes

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCRC16KnownValues(t *testing.T) {
	// CRC16-CCITT (false) test vectors.
	cases := []struct {
		in   string
		want uint16
	}{
		{"", 0xFFFF},
		{"123456789", 0x29B1},
		{"A", 0xB915},
	}
	for _, c := range cases {
		if got := CRC16CCITT([]byte(c.in)); got != c.want {
			t.Errorf("CRC16(%q) = %#04x want %#04x", c.in, got, c.want)
		}
	}
}

func TestDigest32Deterministic(t *testing.T) {
	data := []byte("the same 48-byte macroblock content, repeated!!")
	for _, f := range AllFuncs() {
		a := Digest32(f, data)
		b := Digest32(f, data)
		if a != b {
			t.Errorf("%v not deterministic", f)
		}
	}
}

func TestDigest32Distinguishes(t *testing.T) {
	a := []byte("block A ...............")
	b := []byte("block B ...............")
	for _, f := range AllFuncs() {
		if Digest32(f, a) == Digest32(f, b) {
			t.Errorf("%v collided on trivially different inputs", f)
		}
	}
}

func TestFuncString(t *testing.T) {
	if CRC32.String() != "crc32" {
		t.Fatalf("CRC32 name = %q", CRC32)
	}
	if Func(99).String() != "unknown" {
		t.Fatal("unknown func name")
	}
}

func TestDeep48ExtendsCRC32(t *testing.T) {
	data := []byte("some macroblock")
	d := Deep48(data)
	if uint32(d>>16) != Digest32(CRC32, data) {
		t.Fatal("high 32 bits should be CRC32")
	}
	if uint16(d) != CRC16CCITT(data) {
		t.Fatal("low 16 bits should be CRC16")
	}
}

func TestDeep48Property(t *testing.T) {
	f := func(a, b []byte) bool {
		da, db := Deep48(a), Deep48(b)
		if string(a) == string(b) {
			return da == db
		}
		// Different inputs may collide in principle, but the 48-bit digest
		// must still be internally consistent with its halves.
		return uint16(da) == CRC16CCITT(a) && uint16(db) == CRC16CCITT(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCollisionTrackerExactContent(t *testing.T) {
	tr := NewCollisionTracker(CRC32)
	blk := make([]byte, 48)
	for i := range blk {
		blk[i] = byte(i)
	}
	if tr.Observe(blk) {
		t.Fatal("first observation is never a collision")
	}
	if tr.Observe(blk) {
		t.Fatal("identical content is not a collision")
	}
	if tr.Blocks != 2 || tr.Distinct != 1 || tr.Collisions != 0 {
		t.Fatalf("counts = %+v", tr)
	}
}

func TestCollisionRatesOnRandomBlocks(t *testing.T) {
	// With 20k random 48-byte blocks, a quality 32-bit hash has expected
	// collisions ~ n^2/2^33 ≈ 0.05, so zero collisions is overwhelmingly
	// likely; more than a handful indicates a broken digest.
	rng := rand.New(rand.NewSource(7))
	tr := NewCollisionTracker(CRC32)
	deep := NewDeepCollisionTracker()
	blk := make([]byte, 48)
	for i := 0; i < 20000; i++ {
		rng.Read(blk)
		tr.Observe(blk)
		deep.Observe(blk)
	}
	if tr.Collisions > 3 {
		t.Fatalf("crc32 collisions = %d", tr.Collisions)
	}
	if deep.Collisions != 0 {
		t.Fatalf("deep48 collisions = %d", deep.Collisions)
	}
	if tr.Blocks != 20000 {
		t.Fatalf("observed %d blocks, want 20000", tr.Blocks)
	}
}

func TestMurmur3KnownVectors(t *testing.T) {
	// Reference vectors for MurmurHash3 x86 32-bit.
	cases := []struct {
		in   string
		seed uint32
		want uint32
	}{
		{"", 0, 0},
		{"", 1, 0x514E28B7},
		{"a", 0x9747b28c, 0x7FA09EA6},
		{"abc", 0, 0xB3DD93FA},
		{"Hello, world!", 0x9747b28c, 0x24884CBA},
	}
	for _, c := range cases {
		if got := Murmur3_32([]byte(c.in), c.seed); got != c.want {
			t.Errorf("murmur3(%q, %#x) = %#x want %#x", c.in, c.seed, got, c.want)
		}
	}
}

func TestMurmur3TailLengths(t *testing.T) {
	// All tail lengths (0..3 residual bytes) must mix the final bytes:
	// flipping the last byte changes the hash.
	for n := 1; n <= 9; n++ {
		a := make([]byte, n)
		b := make([]byte, n)
		b[n-1] = 1
		if Murmur3_32(a, 7) == Murmur3_32(b, 7) {
			t.Errorf("len %d: tail byte not mixed", n)
		}
	}
}

// TestSplitMix64Stream pins the first outputs of the reference SplitMix64
// generator seeded at 0, so every stream built on it stays bit-identical.
func TestSplitMix64Stream(t *testing.T) {
	var state uint64
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f} {
		if got := SplitMix64(state); got != want {
			t.Fatalf("output %d = %#016x, want %#016x", i, got, want)
		}
		state += 0x9e3779b97f4a7c15
	}
}
