package core

import (
	"fmt"
	"time"

	"mach/internal/abr"
	"mach/internal/codec"
	"mach/internal/decoder"
	"mach/internal/delivery"
	"mach/internal/display"
	"mach/internal/dram"
	"mach/internal/energy"
	"mach/internal/framebuf"
	"mach/internal/mach"
	"mach/internal/par"
	"mach/internal/power"
	"mach/internal/sim"
	"mach/internal/soc"
	"mach/internal/stats"
	"mach/internal/trace"
)

// pendingFree is a slot release scheduled for a future virtual time.
type pendingFree struct {
	at   sim.Time
	slot int
}

// Runner is one pipeline run exposed as an explicit per-frame step machine.
// Run drives it to completion in one call; the checkpoint/resume path (see
// state.go) cuts the loop at any frame boundary instead: every piece of
// cross-frame state lives in Runner fields, so a snapshot between StepFrame
// calls captures the run exactly and a restored Runner continues
// bit-identically.
type Runner struct {
	tr  *trace.Trace
	s   Scheme
	cfg Config

	// Derived, immutable over the run.
	period         sim.Time
	displayLatency int
	startup        sim.Time
	mcfg           mach.Config
	dispOpt        bool
	avail          []sim.Time
	sched          *delivery.Schedule
	mabSize        int
	mabsPerRow     int
	mabsPerCol     int
	poolCap        int
	retention      int
	dumpRing       int
	dumpSlot       uint64
	encodedAddr    []uint64
	// ABR plumbing, nil/empty unless cfg.ABR.Enabled: the normalized
	// ladder and the planner's per-frame rung schedule.
	ladder abr.Ladder
	rungs  []int

	// Platform models.
	mem     *dram.Memory
	ip      *decoder.IP
	wb      *mach.Writeback
	dc      *display.Controller
	ledger  *power.Ledger
	traffic *soc.Generator
	pool    *framebuf.Pool

	// Mutable loop state (everything below round-trips through a snapshot).
	res          *Result
	now          sim.Time
	trafficFrom  sim.Time
	frame        int // next frame index to decode; equals frames decoded so far
	batchIdx     int
	batchEnd     int
	releases     []sim.Time
	frees        []pendingFree
	layoutByDisp map[int]*framebuf.FrameLayout
	maxDisplayed int

	// Slack-prediction state (§7 comparator): EWMA of low-frequency decode
	// times.
	predictedLow   sim.Time
	havePrediction bool

	// ABR loop state: the rung currently applied to the pipeline (decode
	// cost + MACH quantization), switches taken at batch boundaries, and
	// frames decoded per rung. All zero with ABR disabled.
	rung         int
	rungSwitches int64
	rungFrames   []int64

	//lint:derived a checkpoint taken at the finish line is pointless; Restore rebuilds a runner that is mid-run by construction
	finished bool

	// Persistent writeback hook handed to DecodeFrame every frame; the
	// per-frame parameters travel through the wb* fields so StepFrame never
	// captures a fresh closure environment.
	wbHook func(sink func(addr uint64, size int, mabOrdinal int)) *framebuf.FrameLayout
	//lint:derived per-frame hook arguments, rewritten by every StepFrame before the decode call reads them
	wbFrame *codec.Frame
	//lint:derived per-frame hook arguments, rewritten by every StepFrame before the decode call reads them
	wbDisplayIndex int
	//lint:derived per-frame hook arguments, rewritten by every StepFrame before the decode call reads them
	wbBase, wbDumpBase uint64
}

// NewRunner validates the inputs and builds a run positioned before frame 0.
func NewRunner(tr *trace.Trace, s Scheme, cfg Config) (*Runner, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tr.Frames) == 0 {
		return nil, fmt.Errorf("core: empty trace")
	}

	r := &Runner{tr: tr, s: s, cfg: cfg, maxDisplayed: -1,
		layoutByDisp: make(map[int]*framebuf.FrameLayout)}

	r.period = sim.Time(int64(sim.Second) / int64(max(tr.FPS, 1)))
	// Streams with B frames need one extra period of display latency for
	// decode-order reordering (anchors decode before the B between them).
	r.displayLatency = cfg.DisplayLatencyFrames
	for i := range tr.Frames {
		if tr.Frames[i].Type == codec.FrameB {
			r.displayLatency++
			break
		}
	}

	// --- Instantiate the platform -------------------------------------
	r.mem = dram.New(cfg.DRAM)
	r.ip = decoder.New(cfg.Decoder, r.mem)

	mcfg := cfg.Mach
	mcfg.MabSize = tr.Params.MabSize
	mcfg.LineBytes = int(cfg.DRAM.LineBytes)
	switch s.Mach {
	case MachOff:
		mcfg.Layout = framebuf.LayoutRaw
	case MachMAB:
		mcfg.Gradient = false
	case MachGAB:
		mcfg.Gradient = true
	}
	if s.Mach != MachOff {
		if s.DisplayOpt {
			mcfg.Layout = framebuf.LayoutPtrDigest
		} else {
			mcfg.Layout = framebuf.LayoutPtr
		}
	}
	r.mcfg = mcfg
	wb, err := mach.NewWriteback(mcfg)
	if err != nil {
		return nil, err
	}
	if cfg.Parallel > 1 {
		// The pool shards only the pure per-mab prehash; classification
		// and DRAM op generation stay serial in mab order, so the run is
		// bit-identical to the sequential path (see DESIGN.md).
		wb.SetPool(par.New(cfg.Parallel))
	}
	r.wb = wb

	dcfg := cfg.Display
	dcfg.FPS = tr.FPS
	dcfg.LineBytes = int(cfg.DRAM.LineBytes)
	r.dispOpt = s.Mach != MachOff && s.DisplayOpt
	dcfg.UseDisplayCache = r.dispOpt
	dcfg.UseMachBuffer = r.dispOpt
	r.dc = display.New(dcfg, r.mem)

	// Transitions to/from the boosted P-state cost proportionally more
	// energy (§6.2: Racing's "transitions are to/from higher P states").
	pcfg := cfg.Power
	if s.Race {
		scale := float64(cfg.Decoder.PowerHigh) / float64(cfg.Decoder.PowerLow)
		pcfg.S1TransitionEnergy = energy.Joules(float64(pcfg.S1TransitionEnergy) * scale)
		pcfg.S3TransitionEnergy = energy.Joules(float64(pcfg.S3TransitionEnergy) * scale)
	}
	r.ledger = power.NewLedger(pcfg)

	r.traffic, err = soc.NewGenerator(cfg.Traffic)
	if err != nil {
		return nil, err
	}

	// --- Delivery: per-frame availability --------------------------------
	// avail[i] is the virtual time frame i's encoded bytes are in the
	// streaming buffer; nil means everything is resident before playback
	// (the original perfect-network pipeline, bit-for-bit). Availability
	// comes from the seeded network model when enabled, merged with any
	// arrival metadata recorded in the trace itself.
	if cfg.Delivery.Enabled {
		sizes := make([]int, len(tr.Frames))
		for i := range tr.Frames {
			sizes[i] = tr.Frames[i].EncodedBytes
		}
		if acfg := cfg.ABR.Normalize(); acfg.Enabled {
			r.sched, err = delivery.PlanABR(cfg.Delivery, acfg, sizes, max(tr.FPS, 1))
			if err != nil {
				return nil, err
			}
			r.ladder = acfg.Ladder
			r.rungs = r.sched.Rungs
			r.rungFrames = make([]int64, len(r.ladder))
			// The pipeline opens at the first segment's rung.
			r.rung = r.rungs[0]
			r.wb.SetQuantShift(r.ladder[r.rung].QuantShift)
		} else {
			r.sched, err = delivery.Plan(cfg.Delivery, sizes, max(tr.FPS, 1))
			if err != nil {
				return nil, err
			}
		}
		r.avail = r.sched.Avail
	}
	if tr.HasArrivals() {
		if r.avail == nil {
			r.avail = make([]sim.Time, len(tr.Frames))
		}
		for i := range tr.Frames {
			if a := tr.Frames[i].Arrival; a > r.avail[i] {
				r.avail[i] = a
			}
		}
	}
	// startup shifts the whole playback timeline: with delivery enabled the
	// player holds the first scan-out until the first segment is buffered,
	// so initial download latency is accounted as startup delay rather than
	// as a string of missed deadlines. Zero for the resident-content
	// pipeline.
	if r.avail != nil {
		r.startup = r.avail[0]
	}

	// --- Geometry -------------------------------------------------------
	p := tr.Params
	r.mabSize = p.MabSize
	r.mabsPerRow = p.Width / r.mabSize
	r.mabsPerCol = p.Height / r.mabSize
	numMabs := p.MabsPerFrame()
	frameBytes := uint64(tr.DecodedBytesPerFrame())
	line := uint64(cfg.DRAM.LineBytes)
	alignUp := func(v uint64) uint64 { return (v + line - 1) &^ (line - 1) }
	// Slot: content area + pointer/digest array + base array + bitmap.
	slotBytes := alignUp(frameBytes) + alignUp(uint64(numMabs*4+numMabs/8+8)) + alignUp(uint64(numMabs*3)) + 4096
	r.pool = framebuf.NewPool(framebuf.RegionFrameBuffers, slotBytes)

	if s.Mach != MachOff {
		r.retention = mcfg.NumMACHs
	}
	// Batching needs the frame-buffer pool sized so a whole batch can run
	// back-to-back without waiting for scan-out to free slots (§3.3: 16
	// buffers for 16-frame batches); MACH retention adds NumMACHs more.
	r.poolCap = cfg.BaseBuffers + s.Batch + 5 + r.retention

	r.dumpRing = r.retention + 4
	r.dumpSlot = alignUp(uint64((mcfg.NumMACHs+1)*mcfg.EntriesPerMACH*8)) + line

	// Encoded frames sit consecutively in the streaming buffer region.
	r.encodedAddr = make([]uint64, len(tr.Frames))
	cursor := framebuf.RegionEncoded
	for i := range tr.Frames {
		r.encodedAddr[i] = cursor
		cursor += alignUp(uint64(tr.Frames[i].EncodedBytes))
	}

	// The release ledger gains one entry per frame and the pending-free list
	// stays at most a pool's worth deep; sizing both up front keeps the
	// per-frame step free of slice growth.
	r.releases = make([]sim.Time, 0, len(tr.Frames))
	r.frees = make([]pendingFree, 0, r.poolCap+8)
	r.wbHook = func(sink func(addr uint64, size int, mabOrdinal int)) *framebuf.FrameLayout {
		return r.wb.ProcessFrame(r.wbFrame, r.wbDisplayIndex, r.wbBase, r.wbDumpBase, sink)
	}

	r.res = &Result{
		Scheme:       s,
		Workload:     tr.Profile,
		Frames:       len(tr.Frames),
		Energy:       energy.NewBreakdown(),
		StartupDelay: r.startup,
	}
	if cfg.CollectFrameSamples {
		r.res.FrameTimes = stats.NewSample(len(tr.Frames))
		r.res.FrameEnergies = stats.NewSample(len(tr.Frames))
	}
	return r, nil
}

// Frame returns the index of the next frame to decode (also the number of
// frames decoded so far).
func (r *Runner) Frame() int { return r.frame }

// PrehashWall exposes the writeback engine's prehash host-time accumulator.
// It is read by the repository benchmark as `mach.prehash_ms`.
func (r *Runner) PrehashWall() time.Duration { return r.wb.PrehashWall() }

// Done reports whether every frame has been decoded.
func (r *Runner) Done() bool { return r.frame >= len(r.tr.Frames) }

func (r *Runner) displayTime(displayIndex int) sim.Time {
	return r.startup + sim.Time(int64(r.period)*int64(displayIndex+r.displayLatency))
}

func (r *Runner) emitTraffic(upTo sim.Time) {
	if upTo > r.trafficFrom {
		r.traffic.Emit(r.mem, r.trafficFrom, upTo)
		r.trafficFrom = upTo
	}
}

func (r *Runner) applyFrees(upTo sim.Time) {
	kept := r.frees[:0]
	for _, f := range r.frees {
		if f.at <= upTo {
			r.pool.Release(f.slot)
		} else {
			kept = append(kept, f)
		}
	}
	r.frees = kept
}

// startBatch opens the batch beginning at the current frame: picks the batch
// length, shrinks it to what the streaming buffer holds, and wakes the
// decoder at the batch's release time.
func (r *Runner) startBatch() {
	batchStart := r.frame

	// ABR rung switches land at batch boundaries: the decoder reconfigures
	// between batches, never mid-batch, mirroring how a real pipeline
	// drains before a quality change. The rung is whatever the delivery
	// planner fetched the batch's first frame at.
	if r.rungs != nil {
		if nr := r.rungs[batchStart]; nr != r.rung {
			r.rung = nr
			r.rungSwitches++
			r.wb.SetQuantShift(r.ladder[nr].QuantShift)
		}
	}

	b := r.s.Batch
	if len(r.s.BatchPattern) > 0 {
		b = r.s.BatchPattern[r.batchIdx%len(r.s.BatchPattern)]
		r.batchIdx++
	}
	if r.avail != nil && b > 1 {
		// Graceful degradation: decode only what the streaming buffer
		// already holds, so a delivery stall costs one short rebuffer
		// instead of racing ahead into frames that have not arrived and
		// dropping a whole batch worth of deadlines. An empty buffer
		// degrades to single-frame decoding (wait, then decode one).
		ready := 0
		for i := batchStart; i < len(r.tr.Frames) && i-batchStart < b; i++ {
			if r.avail[i] <= r.now {
				ready++
			} else {
				break
			}
		}
		if ready < 1 {
			ready = 1
		}
		if ready < b {
			b = ready
			r.res.BatchShrinks++
		}
	}
	r.batchEnd = min(batchStart+b, len(r.tr.Frames))

	// Wake the decoder for this batch. Frames are released to the decoder
	// at the stream cadence in decode order (§2.1: the app calls the
	// decoder every frame period); a batch of L frames is released L-1
	// periods earlier so the whole batch can run back-to-back and slow
	// frames borrow slack from fast ones (§3.1).
	wake := r.startup + sim.Time(int64(r.period)*int64(batchStart-(r.batchEnd-batchStart-1)))
	if wake < r.startup {
		wake = r.startup
	}
	if wake > r.now {
		r.ledger.Spend(wake - r.now) // batch-boundary slack: idle/S1/S3 per break-even
		r.now = wake
	}
	r.emitTraffic(r.now)
}

// StepFrame decodes and displays exactly one frame, opening a new batch
// first when the previous one is exhausted. Calling it after Done is a bug.
//
//lint:hotpath the per-frame engine step; everything it reaches runs once per simulated frame and is gated allocation-free
func (r *Runner) StepFrame() {
	if r.Done() {
		panic("core: StepFrame past end of trace")
	}
	if r.frame == r.batchEnd {
		r.startBatch()
	}

	i := r.frame
	f := &r.tr.Frames[i]

	// Rebuffer: the frame's bytes have not arrived yet. The decoder waits,
	// spending the stall as slack under the sleep policy; if the wait
	// pushes past the deadline, the repeat-frame path below absorbs it as
	// a drop rather than a failure.
	if r.avail != nil && r.avail[i] > r.now {
		wait := r.avail[i] - r.now
		r.res.Rebuffers++
		r.res.RebufferTime += wait
		r.ledger.Spend(wait)
		r.now = r.avail[i]
	}

	// Buffer backpressure: wait for a slot when the pipeline is poolCap
	// frames ahead. The wait is slack spent per policy.
	if i >= r.poolCap {
		tFree := r.releases[i-r.poolCap]
		if tFree > r.now {
			r.ledger.Spend(tFree - r.now)
			r.now = tFree
		}
	}
	r.applyFrees(r.now)
	slot, base := r.pool.Acquire()
	dumpBase := framebuf.RegionMachDumps + uint64(i%r.dumpRing)*r.dumpSlot

	// Per-frame DVFS for the slack-predictive comparator: boost only when
	// the EWMA-predicted low-frequency decode time would overrun the
	// deadline (with a 10% guard band).
	race := r.s.Race
	if r.s.SlackPredict {
		dt := r.displayTime(f.DisplayIndex)
		budget := dt - r.now
		race = r.havePrediction && sim.Time(float64(r.predictedLow)*1.1) > budget
	}

	// The applied rung prices this frame's decode: lower rungs carry less
	// entropy/transform work. MACH-side quantization was set when the rung
	// was applied at the batch boundary.
	workScale := 1.0
	if r.rungs != nil {
		workScale = r.ladder[r.rung].CostScale
		r.rungFrames[r.rung]++
	}

	r.wbFrame, r.wbDisplayIndex, r.wbBase, r.wbDumpBase = f.Decoded, f.DisplayIndex, base, dumpBase
	layout, fres := r.ip.DecodeFrame(
		r.now, f.Work, race, workScale,
		r.encodedAddr[i], f.EncodedBytes,
		r.wbHook,
		r.mabsPerRow, r.mabsPerCol, r.mabSize,
	)
	r.ip.RegisterLayout(layout, f.Type)
	r.layoutByDisp[f.DisplayIndex] = layout
	r.now = fres.Done
	r.frame++

	if r.s.SlackPredict {
		lowTime := fres.BusyTime
		if race {
			// Convert the boosted decode back to the low-frequency
			// equivalent for the history.
			lowTime = sim.Time(float64(fres.BusyTime) *
				float64(r.cfg.Decoder.FreqHigh) / float64(r.cfg.Decoder.FreqLow))
		}
		if !r.havePrediction {
			r.predictedLow = lowTime
			r.havePrediction = true
		} else {
			r.predictedLow = sim.Time(0.7*float64(r.predictedLow) + 0.3*float64(lowTime))
		}
	}

	if r.res.FrameTimes != nil {
		r.res.FrameTimes.Add(fres.BusyTime.Seconds())
		r.res.FrameEnergies.Add(float64(fres.ActiveEnergy))
	}

	// Display handover.
	dt := r.displayTime(f.DisplayIndex)
	if fres.Done <= dt {
		r.dc.Prefetch(fres.Done, layout)
		r.dc.ScanOut(dt, layout)
		if f.DisplayIndex > r.maxDisplayed {
			r.maxDisplayed = f.DisplayIndex
		}
	} else {
		// Missed the refresh: the DC re-renders the previous frame (§2.1)
		// and this frame's content is skipped.
		r.res.Drops++
		r.dc.RepeatFrame(dt, r.layoutByDisp[f.DisplayIndex-1])
	}

	// Slot lifetime: until scanned out plus the MACH retention window
	// (inter-match pointers may target this buffer).
	freeAt := dt + sim.Time(int64(r.period)*int64(r.retention+1))
	// Binary search for the insertion point (sort.Search semantics, inlined
	// so the predicate costs no closure).
	lo, hi := 0, len(r.releases)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.releases[mid] > freeAt {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	r.releases = append(r.releases, 0)
	copy(r.releases[lo+1:], r.releases[lo:])
	r.releases[lo] = freeAt
	r.frees = append(r.frees, pendingFree{at: freeAt, slot: slot})

	// Retire decoder-side reference layouts that can no longer be
	// referenced (older than the MACH window and the anchor pair); retired
	// layouts go back to the writeback engine for reuse.
	horizon := f.DisplayIndex - r.retention - 4
	for d, l := range r.layoutByDisp {
		if d < horizon {
			r.ip.RetireLayout(d)
			delete(r.layoutByDisp, d)
			r.wb.Recycle(l)
		}
	}
}

// Finish runs the post-playback tail and assembles the Result. It must be
// called exactly once, after Done.
func (r *Runner) Finish() (*Result, error) {
	if !r.Done() {
		return nil, fmt.Errorf("core: Finish called with %d of %d frames decoded",
			r.frame, len(r.tr.Frames))
	}
	if r.finished {
		return nil, fmt.Errorf("core: Finish called twice")
	}
	r.finished = true

	// Tail: the decoder sleeps until the last frame has been scanned out.
	// When the stream's tail rebuffered past its deadlines (maxDisplayed
	// lags the frame count), the wall clock still ends after the final
	// decode, so late-arrival slack is never silently dropped.
	end := r.displayTime(r.maxDisplayed+1) + r.period
	r.emitTraffic(end)
	if end < r.now {
		end = r.now
	}
	if end > r.now {
		r.ledger.Spend(end - r.now)
	}
	r.mem.AccrueBackground(end)

	// --- Assemble the report ---------------------------------------------
	res := r.res
	res.WallTime = end
	dec := r.ip.Stats()
	disp := r.dc.Stats()
	wstats := r.wb.Stats()
	menergy := r.mem.EnergySnapshot()

	res.BusyTime = dec.BusyTime
	res.IdleTime = r.ledger.IdleTime
	res.S1Time = r.ledger.S1Time
	res.S3Time = r.ledger.S3Time
	res.TransTime = r.ledger.TransTime()
	res.Transitions = r.ledger.Transitions
	res.PoolHighWater = r.pool.HighWater()
	res.Mem = r.mem.Stats()
	res.MemEnergy = menergy
	res.Dec = dec
	res.DecCache = r.ip.CacheStats()
	res.Disp = disp
	res.Mach = wstats
	res.Ledger = r.ledger

	res.Energy.Add(energy.CompVDBusy, float64(dec.ActiveEnergy))
	res.Energy.Add(energy.CompSleep, float64(r.ledger.S1Energy+r.ledger.S3Energy))
	res.Energy.Add(energy.CompShortSlack, float64(r.ledger.IdleEnergy))
	res.Energy.Add(energy.CompTransition, float64(r.ledger.TransEnergy))
	res.Energy.Add(energy.CompMemActPre, float64(menergy.ActPre))
	res.Energy.Add(energy.CompMemBurst, float64(menergy.Burst))
	res.Energy.Add(energy.CompMemBackground, float64(menergy.Background))
	res.Energy.Add(energy.CompDC, float64(disp.ActiveEnergy))

	if r.sched != nil {
		// Radio: idle tail/sleep runs to the end of playback, then the
		// modem's four-state energy joins the breakdown as its own
		// component (outside the nine-part Fig 11 split).
		r.sched.Radio.Finish(end)
		res.Net = r.sched.Stats
		res.Radio = r.sched.Radio.Stats()
		res.Energy.Add(energy.CompRadio, float64(res.Radio.TotalEnergy()))

		// Optional ABR/contention stats stay nil pointers when the models
		// are off, so default results canonicalize byte-identically.
		if a := r.sched.ABR; a != nil {
			res.ABR = &ABRStats{
				FinalRung:       r.rung,
				Switches:        r.rungSwitches,
				RungFrames:      append([]int64(nil), r.rungFrames...),
				PlannedSwitches: a.Switches,
				SegmentsAtRung:  append([]int64(nil), a.SegmentsAtRung...),
				MinRung:         a.MinRung,
				MaxRung:         a.MaxRung,
			}
		}
		if c := r.sched.Contention; c != nil {
			cs := *c
			res.Contention = &cs
		}
	}

	machOn := r.s.Mach != MachOff
	var gabMabs int64
	if r.mcfg.Gradient && machOn {
		gabMabs = wstats.Mabs
	}
	machLookups := wstats.Mabs * int64(1+r.mcfg.NumMACHs)
	machBufOps := disp.DigestRecords + disp.PrefetchReads
	res.Energy.Add(energy.CompMachOverhead, float64(r.cfg.SRAM.Overhead(
		end.Seconds(), machOn, r.dispOpt,
		machLookups, machBufOps, disp.DCLookups, gabMabs,
	)))

	return res, nil
}
