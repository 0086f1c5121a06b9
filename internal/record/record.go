// Package record models the video recording pipeline of §6.4, the paper's
// first "other potential application" of MACH: the camera continuously
// captures frames and passes them to the hardware video encoder through
// memory. The flow is the playback pipeline reversed —
//
//	camera ──writes──► frame buffers ──reads──► encoder ──► bitstream
//
// and it exhibits the same content locality, so MACH can be employed at
// both ends: the camera writes only unique mab/gab content (plus pointers),
// and the encoder reads the deduplicated layout through a MACH buffer of
// its own, mirroring the display controller's structures.
package record

import (
	"fmt"

	"mach/internal/cache"
	"mach/internal/codec"
	"mach/internal/dram"
	"mach/internal/energy"
	"mach/internal/framebuf"
	"mach/internal/mach"
	"mach/internal/power"
	"mach/internal/sim"
	"mach/internal/video"
)

// Config describes the recording platform.
type Config struct {
	// CameraPower is drawn while a frame streams in.
	CameraPower power.Watts
	// FPS is the capture rate.
	FPS int

	// Encoder IP model: frequency and active power, plus per-mab cycle
	// costs. Motion estimation dominates encoders, so its cost scales
	// with the search window.
	EncoderFreq  sim.Hertz
	EncoderPower power.Watts

	CyclesPerMabBase   sim.Cycles
	CyclesPerSearchPos sim.Cycles // per motion-search candidate evaluated
	CyclesPerBit       float64    // cycles per bitstream bit

	// Encoder-side read cache (reference + input fetches).
	CacheBytes int
	LineBytes  int

	// Mach configures content caching at the camera writeback; zero-value
	// Layout means MACH is disabled (raw writes).
	Mach    mach.Config
	UseMach bool

	DRAM dram.Config
}

// DefaultConfig returns a 1080p-class encoder IP at 300 MHz with the
// playback pipeline's Table 2 memory.
func DefaultConfig() Config {
	return Config{
		CameraPower:        0.18,
		FPS:                30,
		EncoderFreq:        300 * sim.MHz,
		EncoderPower:       0.45,
		CyclesPerMabBase:   140,
		CyclesPerSearchPos: 14,
		CyclesPerBit:       1.0,
		CacheBytes:         32 * 1024,
		LineBytes:          64,
		Mach:               mach.DefaultConfig(),
		UseMach:            true,
		DRAM:               dram.DefaultConfig(),
	}
}

// Validate reports malformed configurations.
func (c Config) Validate() error {
	switch {
	case c.FPS <= 0:
		return fmt.Errorf("record: fps %d", c.FPS)
	case c.CameraPower < 0 || c.EncoderPower <= 0:
		return fmt.Errorf("record: powers %g/%g", c.CameraPower, c.EncoderPower)
	case c.EncoderFreq <= 0:
		return fmt.Errorf("record: encoder frequency %v", c.EncoderFreq)
	case c.CacheBytes <= 0 || c.LineBytes <= 0:
		return fmt.Errorf("record: cache shape")
	}
	if err := c.DRAM.Validate(); err != nil {
		return err
	}
	return c.Mach.Validate()
}

// Result reports one recording run.
type Result struct {
	Frames int

	CameraLineWrites    int64
	EncoderLineReads    int64
	BitstreamLineWrites int64

	Mem       dram.Stats
	MemEnergy dram.Energy
	Mach      mach.Stats

	CameraEnergy  energy.Joules
	EncoderEnergy energy.Joules
	// EncoderBusyTime is the encoder's active time, the residency its
	// energy is booked from.
	EncoderBusyTime sim.Time
	WallTime        sim.Time
}

// TotalEnergy returns camera + encoder + memory energy in joules.
func (r *Result) TotalEnergy() energy.Joules {
	return r.CameraEnergy + r.EncoderEnergy + r.MemEnergy.Total()
}

// MemAccesses returns total DRAM line transactions.
func (r *Result) MemAccesses() int64 { return r.Mem.Accesses() }

// Run records numFrames of the given workload profile at the given
// resolution and returns the traffic/energy report. The same generator
// seed always produces the same content, so MACH-on and MACH-off runs see
// identical frames.
func Run(cfg Config, profileKey string, w, h, numFrames int, seed int64) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	prof, err := video.ProfileByKey(profileKey)
	if err != nil {
		return nil, err
	}
	gen, err := video.NewGenerator(prof, w, h, seed)
	if err != nil {
		return nil, err
	}
	params := codec.DefaultParams(w, h)
	params.MabSize = cfg.Mach.MabSize
	enc, err := codec.NewEncoder(params)
	if err != nil {
		return nil, err
	}

	mem := dram.New(cfg.DRAM)
	rcache := cache.NewSetAssoc(cfg.CacheBytes, cfg.LineBytes, 4)

	mcfg := cfg.Mach
	if !cfg.UseMach {
		mcfg.Layout = framebuf.LayoutRaw
	} else if mcfg.Layout == framebuf.LayoutRaw {
		mcfg.Layout = framebuf.LayoutPtr
	}
	wb, err := mach.NewWriteback(mcfg)
	if err != nil {
		return nil, err
	}

	period := sim.Time(int64(sim.Second) / int64(cfg.FPS))
	frameBytes := uint64(w * h * codec.BytesPerPixel)
	line := uint64(cfg.LineBytes)
	alignUp := func(v uint64) uint64 { return (v + line - 1) &^ (line - 1) }
	slot := alignUp(frameBytes) + alignUp(uint64(params.MabsPerFrame()*7)) + 4096
	res := &Result{Frames: numFrames}

	var now sim.Time
	searchPositions := sim.Cycles((2*params.SearchRadius + 1) * (2*params.SearchRadius + 1))

	for i := 0; i < numFrames; i++ {
		frameStart := sim.Time(int64(period) * int64(i))
		if frameStart > now {
			now = frameStart
		}
		fr := gen.Frame()

		// Camera writeback (optionally through MACH): line writes paced
		// across the capture interval.
		base := framebuf.RegionFrameBuffers + uint64(i%(mcfg.NumMACHs+4))*slot
		dump := framebuf.RegionMachDumps + uint64(i%(mcfg.NumMACHs+4))*(64<<10)
		var writes int64
		layout := wb.ProcessFrame(fr, i, base, dump, func(addr uint64, size int, ord int) {
			at := now + sim.Time(int64(period)*int64(ord)/int64(params.MabsPerFrame()))
			mem.Access(at, addr, true)
			writes++
		})
		res.CameraLineWrites += writes
		res.CameraEnergy += cfg.CameraPower.Over(period)

		// Encoder: reads the frame back through the layout (pointer
		// indirection resolved with the encoder's cached reads), runs
		// motion estimation, and writes the bitstream.
		efs, err := enc.Push(fr)
		if err != nil {
			return nil, err
		}
		var bits int64
		for _, ef := range efs {
			bits += int64(len(ef.Data)) * 8
		}

		var cycles sim.Cycles
		readAt := now
		for idx, rec := range layout.Records {
			cycles += cfg.CyclesPerMabBase + cfg.CyclesPerSearchPos*searchPositions
			at := readAt + sim.Time(int64(period)*int64(idx/256*256)/int64(len(layout.Records)))
			switch rec.Kind {
			case framebuf.RecDigest:
				// Served by the encoder-side MACH buffer: no memory read.
			default:
				first, last, n := cache.LineSpan(rec.Ptr, uint64(layout.MabBytes), line)
				for ln := first; n > 0 && ln <= last; ln += line {
					if !rcache.Access(ln, false).Hit {
						mem.Access(at, ln, false)
						res.EncoderLineReads++
					}
				}
			}
		}
		cycles += sim.Cycles(cfg.CyclesPerBit * float64(bits))
		encTime := cfg.EncoderFreq.Cycles(cycles)
		res.EncoderBusyTime += encTime
		res.EncoderEnergy += cfg.EncoderPower.Over(encTime)

		// Bitstream writeback.
		bitBytes := uint64((bits + 7) / 8)
		for off := uint64(0); off < bitBytes; off += line {
			mem.Access(now+encTime, framebuf.RegionEncoded+off, true)
			res.BitstreamLineWrites++
		}

		end := now + encTime
		if p := now + period; p > end {
			end = p
		}
		now = end
	}

	mem.AccrueBackground(now)
	res.WallTime = now
	res.Mem = mem.Stats()
	res.MemEnergy = mem.EnergySnapshot()
	res.Mach = wb.Stats()
	return res, nil
}
