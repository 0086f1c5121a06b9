package dram

import (
	"testing"

	"mach/internal/cache"
	"mach/internal/sim"
)

func cfgNoTimeout() Config {
	c := DefaultConfig()
	c.RowOpenTimeout = 0
	c.TRefi = 0 // timing-exact tests disable refresh
	return c
}

func TestValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.Channels = 3
	if bad.Validate() == nil {
		t.Fatal("3 channels should be rejected")
	}
	bad = good
	bad.BanksPerRank = 0
	if bad.Validate() == nil {
		t.Fatal("zero banks per rank should be rejected")
	}
	bad = good
	bad.LineBytes, bad.RowBytes = 48, 48*32 // a whole number of lines per row
	if bad.Validate() == nil {
		t.Fatal("non-power-of-two line should be rejected")
	}
	bad = good
	bad.RowBytes = 100
	if bad.Validate() == nil {
		t.Fatal("row not multiple of line should be rejected")
	}
	bad = good
	bad.TCL = 0
	if bad.Validate() == nil {
		t.Fatal("zero timing should be rejected")
	}
	// Routing is shifts and masks, so every address field is a power of
	// two.
	bad = good
	bad.BanksPerRank = 6
	if bad.Validate() == nil {
		t.Fatal("6 banks per rank should be rejected")
	}
	bad = good
	bad.RanksPerChannel = 3
	if bad.Validate() == nil {
		t.Fatal("3 ranks per channel should be rejected")
	}
	bad = good
	bad.RowBytes = 192
	if bad.Validate() == nil {
		t.Fatal("3 lines per row should be rejected")
	}
}

func TestRowHitRateOfNoAccesses(t *testing.T) {
	if r := (Stats{}).RowHitRate(); r != 0 {
		t.Fatalf("row-hit rate of no accesses = %v, want 0", r)
	}
}

func TestRowHitLatency(t *testing.T) {
	m := New(cfgNoTimeout())
	c := m.Config()
	d1 := m.Access(0, 0, false)
	wantFirst := c.TRCD + c.TCL + c.TBurst
	if d1 != wantFirst {
		t.Fatalf("closed-row access latency = %v want %v", d1, wantFirst)
	}
	// Same row, same channel: stride by Channels*LineBytes to stay in the
	// same channel under the RoRaBaCoCh line-interleaved mapping.
	d2 := m.Access(d1, uint64(c.LineBytes)*uint64(c.Channels), false)
	if got := d2 - d1; got != c.TCL+c.TBurst {
		t.Fatalf("row hit latency = %v want %v", got, c.TCL+c.TBurst)
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowClosed != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestRowConflictLatency(t *testing.T) {
	m := New(cfgNoTimeout())
	c := m.Config()
	d1 := m.Access(0, 0, false)
	// Same bank, different row: stride by a full bank rotation.
	rowStride := uint64(c.RowBytes) * uint64(c.Channels) * uint64(c.BanksPerRank) * uint64(c.RanksPerChannel)
	d2 := m.Access(d1, rowStride, false)
	if got := d2 - d1; got != c.TRP+c.TRCD+c.TCL+c.TBurst {
		t.Fatalf("conflict latency = %v", got)
	}
	s := m.Stats()
	if s.RowMisses != 1 || s.Precharges != 1 || s.Activates != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBankQueueing(t *testing.T) {
	m := New(cfgNoTimeout())
	c := m.Config()
	d1 := m.Access(0, 0, false)
	// Second request to the same bank issued at time 0 must queue.
	d2 := m.Access(0, uint64(c.LineBytes)*uint64(c.Channels), false)
	if d2 <= d1 {
		t.Fatalf("expected queueing: d1=%v d2=%v", d1, d2)
	}
	if got := d2 - d1; got != c.TCL+c.TBurst {
		t.Fatalf("queued row hit service time = %v", got)
	}
}

func TestChannelParallelism(t *testing.T) {
	m := New(cfgNoTimeout())
	c := m.Config()
	d1 := m.Access(0, 0, false)
	// Adjacent line maps to the other channel: no queueing.
	d2 := m.Access(0, uint64(c.LineBytes), false)
	if d2 != d1 {
		t.Fatalf("different channels should not queue: %v vs %v", d1, d2)
	}
}

func TestRowOpenTimeout(t *testing.T) {
	c := DefaultConfig()
	c.RowOpenTimeout = sim.FromNanoseconds(100)
	m := New(c)
	d1 := m.Access(0, 0, false)
	// Revisit the same row long after the timeout: the controller has
	// precharged it in the background, so we pay an activate again.
	late := d1 + sim.FromNanoseconds(1000)
	d2 := m.Access(late, uint64(c.Channels)*uint64(c.LineBytes), false)
	if got := d2 - late; got != c.TRCD+c.TCL+c.TBurst {
		t.Fatalf("post-timeout latency = %v", got)
	}
	s := m.Stats()
	if s.TimeoutPre != 1 {
		t.Fatalf("timeout precharges = %d", s.TimeoutPre)
	}
	if s.RowHits != 0 {
		t.Fatalf("unexpected row hit: %+v", s)
	}
}

func TestDensePacketsBeatSparse(t *testing.T) {
	// The racing effect (Fig 5a): the same sequential access stream costs
	// fewer Act/Pre when issued back-to-back than when spread out beyond
	// the row-open timeout.
	run := func(gap sim.Time) Stats {
		c := DefaultConfig()
		m := New(c)
		now := sim.Time(0)
		for i := 0; i < 256; i++ {
			addr := uint64(i) * uint64(c.LineBytes)
			done := m.Access(now, addr, true)
			if done > now {
				now = done
			}
			now += gap
		}
		return m.Stats()
	}
	dense := run(0)
	sparse := run(sim.FromNanoseconds(50000))
	if dense.Activates >= sparse.Activates {
		t.Fatalf("dense %d activates should beat sparse %d", dense.Activates, sparse.Activates)
	}
	if sparse.TimeoutPre == 0 && sparse.Refreshes == 0 {
		t.Fatal("sparse stream should lose rows to timeout or refresh")
	}
}

func TestAccessRangeFragmentation(t *testing.T) {
	// A 48-byte mab aligned at 32 straddles two 64B lines (§5's
	// fragmentation case): the reader issues one transaction per line the
	// range overlaps.
	for _, c := range []struct {
		addr, size uint64
		lines      int64
	}{{32, 48, 2}, {0, 48, 1}, {0, 0, 0}} {
		m := New(cfgNoTimeout())
		lineBytes := uint64(m.Config().LineBytes)
		first, last, n := cache.LineSpan(c.addr, c.size, lineBytes)
		for a := first; n > 0 && a <= last; a += lineBytes {
			m.Access(0, a, false)
		}
		if got := m.Stats().Reads; got != c.lines {
			t.Fatalf("[%d,+%d): %d line reads want %d", c.addr, c.size, got, c.lines)
		}
	}
}

func TestEnergyAccounting(t *testing.T) {
	c := cfgNoTimeout()
	m := New(c)
	d := m.Access(0, 0, false)                                // activate + read
	m.Access(d, uint64(c.Channels)*uint64(c.LineBytes), true) // row hit write
	m.AccrueBackground(sim.FromMilliseconds(1))
	e := m.EnergySnapshot()
	if e.ActPre != c.EnergyActPre/2 {
		t.Fatalf("actpre = %v", e.ActPre) // one activate, no precharge yet
	}
	wantBurst := c.EnergyReadLine + c.EnergyWriteLine
	if e.Burst != wantBurst {
		t.Fatalf("burst = %v want %v", e.Burst, wantBurst)
	}
	wantBg := c.BackgroundPower.Over(sim.FromMilliseconds(1))
	if diff := e.Background - wantBg; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("background = %v want %v", e.Background, wantBg)
	}
	// Accruing to the same time again must not double-charge.
	m.AccrueBackground(sim.FromMilliseconds(1))
	if m.EnergySnapshot().Background != e.Background {
		t.Fatal("double background charge")
	}
	if e.Total() <= 0 {
		t.Fatal("total energy must be positive")
	}
}

func TestSequentialStreamRowHitRate(t *testing.T) {
	c := cfgNoTimeout()
	m := New(c)
	now := sim.Time(0)
	n := 2048
	for i := 0; i < n; i++ {
		done := m.Access(now, uint64(i)*uint64(c.LineBytes), true)
		if done > now {
			now = done
		}
	}
	s := m.Stats()
	if hr := s.RowHitRate(); hr < 0.9 {
		t.Fatalf("sequential stream row hit rate = %v", hr)
	}
	if s.Accesses() != int64(n) {
		t.Fatalf("accesses = %d", s.Accesses())
	}
}

func TestRefreshClosesRowsAndStalls(t *testing.T) {
	c := DefaultConfig()
	c.RowOpenTimeout = 0 // isolate refresh
	m := New(c)
	d1 := m.Access(0, 0, false)
	// Re-reference the same row long after a refresh window: the row was
	// refreshed away and the access also waits out tRFC.
	late := d1 + c.TRefi + sim.Microsecond
	d2 := m.Access(late, uint64(c.Channels)*uint64(c.LineBytes), false)
	want := c.TRfc + c.TRCD + c.TCL + c.TBurst
	if got := d2 - late; got != want {
		t.Fatalf("post-refresh latency = %v want %v", got, want)
	}
	s := m.Stats()
	if s.Refreshes == 0 {
		t.Fatal("refresh windows must be settled")
	}
	if s.RowHits != 0 {
		t.Fatal("refreshed row must not hit")
	}
}

func TestAddressMappings(t *testing.T) {
	if RoRaBaCoCh.String() != "RoRaBaCoCh" || RoCoRaBaCh.String() != "RoCoRaBaCh" {
		t.Fatal("mapping names")
	}
	// Under RoCoRaBaCh consecutive same-channel lines rotate banks, so a
	// sequential sweep of 16 lines in one channel touches many banks;
	// under RoRaBaCoCh they stay in one bank's row.
	countBanks := func(mapping AddressMapping) int {
		c := cfgNoTimeout()
		c.Mapping = mapping
		m := New(c)
		seen := map[int]bool{}
		for i := 0; i < 16; i++ {
			addr := uint64(i) * uint64(c.LineBytes) * uint64(c.Channels) // same channel
			b, _ := m.route(addr)
			seen[b] = true
		}
		return len(seen)
	}
	if got := countBanks(RoRaBaCoCh); got != 1 {
		t.Fatalf("RoRaBaCoCh banks = %d want 1", got)
	}
	if got := countBanks(RoCoRaBaCh); got != 8 {
		t.Fatalf("RoCoRaBaCh banks = %d want 8", got)
	}
}

func TestMappingAffectsRowLocality(t *testing.T) {
	// A 4KB-strided sweep: under RoRaBaCoCh every access opens a fresh row
	// (banks rotate but each bank's row advances per visit); under
	// RoCoRaBaCh eight consecutive strides land in one row of one bank.
	run := func(mapping AddressMapping) float64 {
		c := cfgNoTimeout()
		c.Mapping = mapping
		m := New(c)
		now := sim.Time(0)
		for i := 0; i < 64; i++ {
			d := m.Access(now, uint64(i)*4096, false)
			if d > now {
				now = d
			}
		}
		return m.Stats().RowHitRate()
	}
	seq, il := run(RoRaBaCoCh), run(RoCoRaBaCh)
	if seq > 0.05 {
		t.Fatalf("RoRaBaCoCh strided sweep should miss rows, hit rate %.2f", seq)
	}
	if il < 0.8 {
		t.Fatalf("RoCoRaBaCh strided sweep should mostly hit, hit rate %.2f", il)
	}
}
