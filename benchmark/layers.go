package main

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"mach/internal/core"
	"mach/internal/decoder"
	"mach/internal/delivery"
	"mach/internal/display"
	"mach/internal/dram"
	"mach/internal/framebuf"
	"mach/internal/mach"
	"mach/internal/sim"
	"mach/internal/trace"
)

// probe is the traced run's pass over the layers the window's ops do not
// reach, after the window. For each trace it runs a session with
// crash-resume cycles, a leaf replay and a delivery plan with the fleet's
// LTE and ABR configuration. Then it builds the fleet probe and runs it
// once, checked against the pinned aggregate at the default seed.
func (b *bench) probe(t *tracer, p pins, firstOp int) (attempted int, failures []error) {
	for k, tr := range b.traces {
		t.setOp(firstOp + k)
		attempted += 3 // the resumed session, the leaf replay and the plan
		res, err := b.session(t, tr, true)
		if err == nil {
			err = checkSession(tr, res, b.refs[k])
		}
		if err != nil {
			failures = append(failures, fmt.Errorf("resume: %w", err))
		}
		if err := leafReplay(t, tr, b.scheme, b.cfg); err != nil {
			failures = append(failures, err)
		}
		sizes := make([]int, len(tr.Frames))
		for i := range tr.Frames {
			sizes[i] = tr.Frames[i].EncodedBytes
		}
		id := t.begin("delivery.plan")
		_, err = delivery.PlanABR(b.fcfg.Platform.Delivery, b.fcfg.Platform.ABR.Normalize(), sizes, max(tr.FPS, 1))
		t.end(id)
		if err != nil {
			failures = append(failures, err)
		}
	}
	t.setOp(firstOp + len(b.traces))
	defer t.setOp(-1)
	attempted++
	want := ""
	if b.seed == defaultSeed {
		want = p.Fleet
	}
	err := b.buildFleet(t)
	if err == nil {
		b.refAgg, err = b.fleetRun(t)
	}
	if err == nil {
		err = checkFleet(b.refAgg, b.sup.Plans(), want)
	}
	if err != nil {
		failures = append(failures, err)
	}
	return attempted, failures
}

// leafReplay feeds tr's frames in decode order through fresh decoder, MACH
// writeback and display instances, configured the way core.NewRunner
// configures them for scheme s, with no batching or sleep policy. DRAM has
// no span of its own: only the decoder and the display reach it, so its
// time counts in theirs.
func leafReplay(t *tracer, tr *trace.Trace, s core.Scheme, cfg core.Config) error {
	mem := dram.New(cfg.DRAM)
	ip := decoder.New(cfg.Decoder, mem)
	line := uint64(cfg.DRAM.LineBytes)
	mcfg := cfg.Mach
	mcfg.MabSize, mcfg.LineBytes = tr.Params.MabSize, int(line)
	switch s.Mach {
	case core.MachOff:
		mcfg.Layout = framebuf.LayoutRaw
	case core.MachMAB:
		mcfg.Gradient = false
	case core.MachGAB:
		mcfg.Gradient = true
	}
	if s.Mach != core.MachOff {
		mcfg.Layout = framebuf.LayoutPtr
		if s.DisplayOpt {
			mcfg.Layout = framebuf.LayoutPtrDigest
		}
	}
	wb, err := mach.NewWriteback(mcfg)
	if err != nil {
		return err
	}
	dcfg := cfg.Display
	dcfg.FPS, dcfg.LineBytes = tr.FPS, int(line)
	dcfg.UseDisplayCache = s.Mach != core.MachOff && s.DisplayOpt
	dcfg.UseMachBuffer = dcfg.UseDisplayCache
	dc := display.New(dcfg, mem)

	// Buffer addresses and lifetimes follow core.NewRunner's layout.
	p := tr.Params
	align := func(v uint64) uint64 { return (v + line - 1) &^ (line - 1) }
	mabs := uint64(p.MabsPerFrame())
	slotBytes := align(uint64(tr.DecodedBytesPerFrame())) + align(mabs*4+mabs/8+8) + align(mabs*3) + 4096
	pool := framebuf.NewPool(framebuf.RegionFrameBuffers, slotBytes)
	retention := 0
	if s.Mach != core.MachOff {
		retention = mcfg.NumMACHs
	}
	dumpRing := uint64(retention + 4)
	dumpSlot := align(uint64((mcfg.NumMACHs+1)*mcfg.EntriesPerMACH*8)) + line
	period := sim.Time(int64(sim.Second) / int64(max(tr.FPS, 1)))
	latency := int64(cfg.DisplayLatencyFrames + 1)

	encoded := framebuf.RegionEncoded
	var now sim.Time
	layouts := map[int]*framebuf.FrameLayout{}
	slots := map[int]int{}
	for i := range tr.Frames {
		f := &tr.Frames[i]
		slot, base := pool.Acquire()
		dump := framebuf.RegionMachDumps + uint64(i)%dumpRing*dumpSlot
		writeback := func(sink func(addr uint64, size int, mabOrdinal int)) *framebuf.FrameLayout {
			id := t.begin("mach.process_frame")
			before := wb.PrehashWall()
			l := wb.ProcessFrame(f.Decoded, f.DisplayIndex, base, dump, sink)
			t.note("leaf.prehash_us", usOf(wb.PrehashWall()-before))
			t.end(id)
			return l
		}
		id := t.begin("decoder.decode_frame")
		layout, fres := ip.DecodeFrame(now, f.Work, s.Race, 1, encoded, f.EncodedBytes, writeback,
			p.Width/p.MabSize, p.Height/p.MabSize, p.MabSize)
		t.end(id)
		encoded += align(uint64(f.EncodedBytes))
		ip.RegisterLayout(layout, f.Type)
		layouts[f.DisplayIndex], slots[f.DisplayIndex] = layout, slot

		id = t.begin("display.prefetch")
		dc.Prefetch(fres.Done, layout)
		t.end(id)
		id = t.begin("display.scanout")
		dc.ScanOut(max(sim.Time(int64(period)*(int64(f.DisplayIndex)+latency)), fres.Done), layout)
		t.end(id)
		now = fres.Done

		horizon := f.DisplayIndex - retention - 4
		old := make([]int, 0, len(layouts))
		for d := range layouts {
			if d < horizon {
				old = append(old, d)
			}
		}
		sort.Ints(old)
		for _, d := range old {
			ip.RetireLayout(d)
			wb.Recycle(layouts[d])
			pool.Release(slots[d])
			delete(layouts, d)
			delete(slots, d)
		}
	}
	return nil
}

func traceKey(profile string, frames int) string {
	return profile + "/" + strconv.Itoa(frames)
}

func usOf(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerMetrics reduces a traced run's spans and notes to the per-layer
// metrics. win holds the window's op timings for the tracing overhead.
func (b *bench) layerMetrics(t *tracer, win []opTiming) map[string]float64 {
	self := selfTimes(t.spans)
	byName := map[string][]float64{} // durations in µs
	selfSum := map[string]float64{}  // self time in µs
	for i, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], float64(s.dur())/1e3)
		selfSum[s.Name] += float64(self[i]) / 1e3
	}
	built := float64(len(byName["setup.trace"]))
	leafFrames := float64(len(byName["decoder.decode_frame"]))
	steps := byName["core.step"]
	stepMean := ratio(sum(steps), float64(len(steps)))
	processUs := ratio(sum(byName["mach.process_frame"]), leafFrames)
	decoderUs := ratio(selfSum["decoder.decode_frame"], leafFrames)
	displayUs := ratio(sum(byName["display.prefetch"])+sum(byName["display.scanout"]), leafFrames)
	mabs := float64(b.traces[0].Params.MabsPerFrame())

	m := map[string]float64{
		"video.generate_ms":    ratio(sum(byName["video.generate"]), built) / 1e3,
		"codec.encode_ms":      ratio(sum(byName["codec.encode"]), built) / 1e3,
		"codec.decode_ms":      ratio(sum(byName["codec.decode"]), built) / 1e3,
		"core.new_runner_us":   median(byName["core.new_runner"]),
		"core.step_us_p50":     percentile(steps, 50),
		"core.step_us_p90":     percentile(steps, 90),
		"core.finish_us":       median(byName["core.finish"]),
		"core.host_ns_per_mab": ratio(stepMean*1e3, mabs),
		"mach.prehash_ms":      median(t.notes["mach.prehash_ms"]),
		"mach.process_us":      processUs,
		"mach.classify_us":     ratio(sum(byName["mach.process_frame"])-sum(t.notes["leaf.prehash_us"]), leafFrames),
		"decoder.self_us":      decoderUs,
		"display.us":           displayUs,
		"mach.process_share":   ratio(processUs, stepMean),
		"decoder.self_share":   ratio(decoderUs, stepMean),
		"core.snapshot_ms":     median(byName["core.snapshot"]) / 1e3,
		"core.fingerprint_us":  median(byName["core.fingerprint"]),
		"core.restore_ms":      median(byName["core.restore"]) / 1e3,
		"checkpoint.save_ms":   median(byName["checkpoint.save"]) / 1e3,
		"checkpoint.load_ms":   median(byName["checkpoint.load"]) / 1e3,
		"checkpoint.bytes":     median(t.notes["checkpoint.bytes"]),
		"delivery.plan_us":     median(byName["delivery.plan"]),
		"par.cpu_util":         median(t.notes["par.cpu_util"]),
		"fleet.quarantined":    sum(t.notes["fleet.quarantined"]),
		"fleet.restarts":       sum(t.notes["fleet.restarts"]),
		"layers.closure":       closure(processUs+decoderUs+displayUs, stepMean),
		"bench.trace_overhead": overheadOf(win),
		"mach.match_rate":      b.meanRes(func(r *core.Result) float64 { return r.Mach.MatchRate() }),
		"mach.savings":         b.meanRes(func(r *core.Result) float64 { return r.Mach.Savings() }),
		"dram.accesses":        b.meanRes(func(r *core.Result) float64 { return float64(r.Mem.Accesses()) }),
		"dram.row_hit_rate":    b.meanRes(func(r *core.Result) float64 { return r.Mem.RowHitRate() }),
		"display.dc_hit_rate":  b.meanRes(func(r *core.Result) float64 { return r.Disp.DCHitRate() }),
		"decoder.ref_hit_rate": b.meanRes(func(r *core.Result) float64 { return r.Dec.RefHitRate() }),
		"decoder.stall_ms":     b.meanRes(func(r *core.Result) float64 { return r.Dec.StallTime.Milliseconds() }),
		"power.s3_residency":   b.meanRes(func(r *core.Result) float64 { return r.S3Residency() }),
		"power.transitions":    b.meanRes(func(r *core.Result) float64 { return float64(r.Transitions) }),
		"delivery.rebuffers":   b.meanRes(func(r *core.Result) float64 { return float64(r.Rebuffers) }),
		"delivery.startup_ms_p50": median(b.mapRes(func(r *core.Result) float64 {
			return r.StartupDelay.Milliseconds()
		})),
	}
	if a := b.refAgg; a != nil && a.Completed > 0 {
		m["delivery.rebuffers"] = float64(a.TotalRebuffers) / float64(a.Completed)
		m["delivery.startup_ms_p50"] = a.StartupMs.P50
	}
	return m
}

// mapRes applies f to every reference session result.
func (b *bench) mapRes(f func(*core.Result) float64) []float64 {
	var xs []float64
	for _, r := range b.refRes {
		if r != nil {
			xs = append(xs, f(r))
		}
	}
	return xs
}

func (b *bench) meanRes(f func(*core.Result) float64) float64 {
	xs := b.mapRes(f)
	return ratio(sum(xs), float64(len(xs)))
}

// overheadOf compares the frame rates of the window's untraced and traced
// ops, which alternate so that drift hits both alike.
func overheadOf(win []opTiming) float64 {
	var rate [2][2]float64 // [traced][frames, ms]
	for _, o := range win {
		i := 0
		if o.traced {
			i = 1
		}
		rate[i][0] += float64(o.frames)
		rate[i][1] += o.ms
	}
	return traceOverhead(ratio(rate[0][0], rate[0][1]), ratio(rate[1][0], rate[1][1]))
}
