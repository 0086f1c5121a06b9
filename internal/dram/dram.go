// Package dram implements a transaction-level LPDDR3 memory model after the
// paper's Table 2 configuration (2 channels, 1 rank/channel, 8 banks/rank,
// 800 MHz I/O clock, tCL/tRP/tRCD = 12/18/18 ns, RoRaBaCoCh mapping).
//
// The model tracks per-bank row-buffer state (open-page policy with a
// starvation timeout), so the effect the paper's Racing scheme exploits —
// tightly spaced sequential requests ride one row activation, while slowly
// spaced requests lose the row to interleaved traffic or timeout and pay
// extra Activate/Precharge pairs (Fig 5a) — emerges from the access streams
// rather than being asserted.
//
// Energy is split the way the paper reports it (Fig 5b, Fig 11): background,
// activate/precharge, and read/write burst energy.
package dram

import (
	"fmt"
	"math/bits"

	"mach/internal/energy"
	"mach/internal/power"
	"mach/internal/sim"
)

// Bytes is a size in bytes — rows, lines, transfer extents. It is a named
// unit type (DESIGN.md "machlint v2: unit types"), distinct from the plain
// uint64 physical addresses it offsets: adding Bytes to an address is
// meaningful, adding an address to an address is not, and the unitflow
// analyzer keeps derived locals honest. The underlying uint64 is unchanged.
type Bytes uint64

// Config describes one LPDDR3 device pool.
type Config struct {
	Channels        int
	RanksPerChannel int
	BanksPerRank    int
	RowBytes        Bytes // row-buffer (page) size per bank
	LineBytes       Bytes // transaction granularity (one 64B burst)

	TRCD   sim.Time // activate -> column command
	TRP    sim.Time // precharge duration
	TCL    sim.Time // column command -> first data
	TBurst sim.Time // data transfer time for one line

	// RowOpenTimeout is the maximum time a row may stay open without being
	// re-referenced before the controller precharges it to avoid starving
	// requests to other rows (§3.2). Zero disables the timeout.
	RowOpenTimeout sim.Time

	// MaxQueueDelay bounds how long one transaction can queue behind a
	// bank's earlier transactions. The model is transaction-level and the
	// IPs issue their streams slightly out of chronological order; without
	// a bound, a posted future-timestamped access would serialize every
	// logically concurrent request behind it. The bound approximates a
	// finite per-bank queue with out-of-order service. Zero disables
	// queueing entirely.
	MaxQueueDelay sim.Time

	// Mapping selects the physical address decomposition.
	Mapping AddressMapping

	// Refresh: every TRefi each bank pays a TRfc stall and loses its open
	// row. LPDDR3's base interval is 3.9 us, but controllers postpone up
	// to 8 refreshes (JEDEC) and issue them in bursts, so the default
	// window is 8 x 3.9 us with the energy of the whole burst. Zero TRefi
	// disables refresh.
	TRefi sim.Time
	TRfc  sim.Time
	// EnergyRefresh is charged per settled refresh window per bank.
	EnergyRefresh energy.Joules

	// Energy model (joules per operation, watts for background).
	EnergyActPre    energy.Joules // one activate+precharge pair
	EnergyReadLine  energy.Joules // one line read burst
	EnergyWriteLine energy.Joules // one line write burst
	BackgroundPower power.Watts   // standby + refresh, whole pool
}

// DefaultConfig returns the Table 2 configuration. The per-operation energies
// are calibrated so that, at the experiments' default simulation resolution,
// the baseline energy breakdown matches the paper's measured shares (memory
// ≈46% of energy, split ≈46% Act/Pre vs ≈13% burst of the video-path energy);
// see EXPERIMENTS.md for the calibration note.
func DefaultConfig() Config {
	return Config{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowBytes:        2048,
		LineBytes:       64,
		TRCD:            sim.FromNanoseconds(18),
		TRP:             sim.FromNanoseconds(18),
		TCL:             sim.FromNanoseconds(12),
		TBurst:          sim.FromNanoseconds(10), // 64B at 6.4 GB/s per channel
		RowOpenTimeout:  sim.FromNanoseconds(12000),
		MaxQueueDelay:   sim.FromNanoseconds(300),
		Mapping:         RoRaBaCoCh,
		TRefi:           sim.FromNanoseconds(8 * 3900),
		TRfc:            sim.FromNanoseconds(8 * 130),
		EnergyRefresh:   8 * 18e-9,
		EnergyActPre:    1.35e-6,
		EnergyReadLine:  180e-9,
		EnergyWriteLine: 190e-9,
		BackgroundPower: 0.080,
	}
}

// Validate reports a descriptive error for malformed configurations. Every
// address field is a power of two, so routing is exact shifts and masks.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.RanksPerChannel <= 0 || c.BanksPerRank <= 0:
		return fmt.Errorf("dram: non-positive topology %d/%d/%d", c.Channels, c.RanksPerChannel, c.BanksPerRank)
	case c.RowBytes == 0 || c.LineBytes == 0 || c.RowBytes%c.LineBytes != 0:
		return fmt.Errorf("dram: row %dB not a multiple of line %dB", c.RowBytes, c.LineBytes)
	case !pow2(uint64(c.LineBytes)):
		return fmt.Errorf("dram: line size %d not a power of two", c.LineBytes)
	case !pow2(uint64(c.RowBytes / c.LineBytes)):
		return fmt.Errorf("dram: %d lines per row not a power of two", c.RowBytes/c.LineBytes)
	case !pow2(uint64(c.Channels)) || !pow2(uint64(c.RanksPerChannel)) || !pow2(uint64(c.BanksPerRank)):
		return fmt.Errorf("dram: topology %d/%d/%d not powers of two", c.Channels, c.RanksPerChannel, c.BanksPerRank)
	case c.TRCD <= 0 || c.TRP <= 0 || c.TCL <= 0 || c.TBurst <= 0:
		return fmt.Errorf("dram: non-positive timing")
	}
	return nil
}

func pow2(v uint64) bool { return v&(v-1) == 0 }

// log2 returns the exponent of a power of two.
func log2(v uint64) uint { return uint(bits.TrailingZeros64(v)) }

// Stats aggregates command and event counts.
type Stats struct {
	Reads      int64 // line reads
	Writes     int64 // line writes
	Activates  int64
	Precharges int64
	RowHits    int64
	RowMisses  int64 // conflict: open row differs
	RowClosed  int64 // miss to a closed (precharged/timed-out) bank
	TimeoutPre int64 // precharges caused by the open-row timeout
	Refreshes  int64 // per-bank refresh windows settled
}

// Accesses returns total line transactions.
func (s Stats) Accesses() int64 { return s.Reads + s.Writes }

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(a)
}

// Energy is the accumulated energy split, in joules.
type Energy struct {
	ActPre     energy.Joules
	Burst      energy.Joules
	Background energy.Joules
}

// Total returns the sum of all components.
func (e Energy) Total() energy.Joules { return e.ActPre + e.Burst + e.Background }

type bank struct {
	openRow     int64 // -1 when precharged
	freeAt      sim.Time
	lastUsed    sim.Time
	refreshedAt sim.Time // start of the current tREFI window
}

// Memory is the simulated device pool. It is not safe for concurrent use;
// the core.Runner frame-step machine serializes callers.
type Memory struct {
	cfg   Config
	banks []bank

	stats  Stats
	energy Energy

	bgFrom sim.Time // background energy accounted up to here

	// Address fields (see route): the channel, bank-and-rank and row of an
	// address are (addr >> shift) & mask.
	chShift, bankShift, rowShift uint
	chMask, bankMask             uint64
	bankBits                     uint // width of the bank-and-rank field
}

// rowMask wraps row numbers at 2^20 rows per bank: plenty for any frame
// buffer, and a wrap only aliases rows, never banks.
const rowMask = 1<<20 - 1

// New constructs a memory pool; it panics on invalid configuration (a
// construction-time programming error, matching the cache package).
func New(cfg Config) *Memory {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Channels * cfg.RanksPerChannel * cfg.BanksPerRank
	lineBits := log2(uint64(cfg.LineBytes))
	chBits := log2(uint64(cfg.Channels))
	colBits := log2(uint64(cfg.RowBytes / cfg.LineBytes))
	bankBits := log2(uint64(cfg.RanksPerChannel * cfg.BanksPerRank))
	m := &Memory{
		cfg:      cfg,
		banks:    make([]bank, n),
		chShift:  lineBits,
		chMask:   uint64(cfg.Channels - 1),
		bankMask: uint64(cfg.RanksPerChannel*cfg.BanksPerRank - 1),
		bankBits: bankBits,
	}
	// Fields from the least significant bit up: line offset, channel, then
	// column and bank-and-rank in the mapping's order, then row.
	switch cfg.Mapping {
	case RoCoRaBaCh:
		m.bankShift = lineBits + chBits
		m.rowShift = m.bankShift + bankBits + colBits
	default: // RoRaBaCoCh
		m.bankShift = lineBits + chBits + colBits
		m.rowShift = m.bankShift + bankBits
	}
	for i := range m.banks {
		m.banks[i].openRow = -1
	}
	return m
}

// Config returns the construction configuration.
func (m *Memory) Config() Config { return m.cfg }

// Stats returns the counters accumulated so far.
func (m *Memory) Stats() Stats { return m.stats }

// AddressMapping selects how physical addresses decompose into channel,
// bank, and row (DRAMSim2-style mapping strings, MSB first).
type AddressMapping int

const (
	// RoRaBaCoCh (Table 2): channel interleaved at line granularity,
	// column bits next, then bank, rank, row — consecutive lines alternate
	// channels and sweep a row before changing banks.
	RoRaBaCoCh AddressMapping = iota
	// RoCoRaBaCh: bank interleaved right above the channel bits —
	// consecutive row-sized regions rotate banks, so a linear sweep
	// spreads across banks at row granularity.
	RoCoRaBaCh
)

func (a AddressMapping) String() string {
	switch a {
	case RoRaBaCoCh:
		return "RoRaBaCoCh"
	case RoCoRaBaCh:
		return "RoCoRaBaCh"
	default:
		return fmt.Sprintf("AddressMapping(%d)", int(a))
	}
}

// route decomposes a physical address under the configured mapping. Bank
// and rank are adjacent fields under both mappings, so rank*banks+bank is
// one masked field, and the bank index is the channel above it.
func (m *Memory) route(addr uint64) (bankIdx int, row int64) {
	ch := (addr >> m.chShift) & m.chMask
	bank := (addr >> m.bankShift) & m.bankMask
	return int(ch<<m.bankBits | bank), int64((addr >> m.rowShift) & rowMask)
}

// Access performs one line transaction at virtual time now and returns the
// completion time. The returned latency already includes queueing behind the
// bank's previous transaction. It is issued for every line transaction of
// every frame: the innermost loop of the memory model.
func (m *Memory) Access(now sim.Time, addr uint64, write bool) sim.Time {
	bi, row := m.route(addr)
	b := &m.banks[bi]

	start := now
	if b.freeAt > start {
		start = b.freeAt
		if m.cfg.MaxQueueDelay > 0 && start > now+m.cfg.MaxQueueDelay {
			start = now + m.cfg.MaxQueueDelay
		}
	}

	// Refresh: each elapsed tREFI window costs one tRFC stall and closes
	// the open row. Elapsed windows are settled lazily on the next access.
	if m.cfg.TRefi > 0 && start > b.refreshedAt+m.cfg.TRefi {
		elapsed := int64((start - b.refreshedAt) / m.cfg.TRefi)
		b.refreshedAt += sim.Time(elapsed * int64(m.cfg.TRefi))
		m.stats.Refreshes += elapsed
		m.energy.Background += m.cfg.EnergyRefresh * energy.Joules(elapsed)
		if b.openRow >= 0 {
			b.openRow = -1
			m.stats.Precharges++
			m.energy.ActPre += m.cfg.EnergyActPre / 2
		}
		start += m.cfg.TRfc // the access waits out the in-progress refresh
	}

	// Row-open timeout: the controller precharged the row in the background
	// if it sat unreferenced for longer than the starvation bound.
	if b.openRow >= 0 && m.cfg.RowOpenTimeout > 0 && start-b.lastUsed > m.cfg.RowOpenTimeout {
		b.openRow = -1
		m.stats.Precharges++
		m.stats.TimeoutPre++
		m.energy.ActPre += m.cfg.EnergyActPre / 2 // precharge half of the pair
	}

	var ready sim.Time
	switch {
	case b.openRow == row:
		m.stats.RowHits++
		ready = start + m.cfg.TCL
	case b.openRow < 0:
		m.stats.RowClosed++
		m.stats.Activates++
		m.energy.ActPre += m.cfg.EnergyActPre / 2 // activate half of the pair
		ready = start + m.cfg.TRCD + m.cfg.TCL
		b.openRow = row
	default:
		m.stats.RowMisses++
		m.stats.Precharges++
		m.stats.Activates++
		m.energy.ActPre += m.cfg.EnergyActPre
		ready = start + m.cfg.TRP + m.cfg.TRCD + m.cfg.TCL
		b.openRow = row
	}

	done := ready + m.cfg.TBurst
	b.freeAt = done
	b.lastUsed = done

	if write {
		m.stats.Writes++
		m.energy.Burst += m.cfg.EnergyWriteLine
	} else {
		m.stats.Reads++
		m.energy.Burst += m.cfg.EnergyReadLine
	}
	return done
}

// AccrueBackground charges background power up to time now. Callers invoke it
// once at the end of a simulation (or periodically; charging is idempotent
// over disjoint intervals).
func (m *Memory) AccrueBackground(now sim.Time) {
	if now <= m.bgFrom {
		return
	}
	m.energy.Background += m.cfg.BackgroundPower.Over(now - m.bgFrom)
	m.bgFrom = now
}

// EnergySnapshot returns the energy split accumulated so far. Background is
// only up to date after AccrueBackground.
func (m *Memory) EnergySnapshot() Energy { return m.energy }
