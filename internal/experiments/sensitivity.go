package experiments

import (
	"fmt"

	"mach/internal/core"
	"mach/internal/framebuf"
	"mach/internal/hashes"
	"mach/internal/mach"
	"mach/internal/stats"
	"mach/internal/video"
)

// Fig12a reproduces the frame-buffer sensitivity to the number of MACHs:
// deeper inter-match windows hold buffers alive longer (paper: 8 MACHs
// chosen; 16 MACHs would need ≈300MB of extra buffers at 4K).
func (r *Runner) Fig12a(machCounts []int) (*stats.Table, error) {
	if len(machCounts) == 0 {
		machCounts = []int{2, 4, 8, 16}
	}
	key := r.Cfg.Videos[0]
	tr, err := r.trace(key)
	if err != nil {
		return nil, err
	}
	frameMB := float64(tr.DecodedBytesPerFrame()) / (1 << 20)
	tb := stats.NewTable("MACHs", "buffers-high-water", "extra-vs-triple", "extra-MB", "gab-match", "trans-share")
	for _, n := range machCounts {
		cfg := r.Cfg.Platform
		cfg.Mach.NumMACHs = n
		res, err := core.Run(tr, core.GAB(core.DefaultBatch), cfg)
		if err != nil {
			return nil, err
		}
		extra := res.PoolHighWater - 3
		if extra < 0 {
			extra = 0
		}
		tb.AddRow(n, res.PoolHighWater, extra,
			fmt.Sprintf("%.1f", float64(extra)*frameMB),
			pct(res.Mach.MatchRate()),
			pct(res.Energy.Get("transition")/res.TotalEnergy()))
	}
	return tb, nil
}

// Fig12b reproduces the MACH-buffer entry-count sweep (paper: 2K entries is
// the knee between on-chip energy cost and match coverage).
func (r *Runner) Fig12b(entries []int) (*stats.Table, error) {
	if len(entries) == 0 {
		entries = []int{256, 512, 1024, 2048, 4096, 8192}
	}
	key := r.Cfg.Videos[0]
	tr, err := r.trace(key)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("machbuf-entries", "machbuf-hit", "dc-line-reads/frame", "total-mJ/frame")
	for _, n := range entries {
		cfg := r.Cfg.Platform
		cfg.Display.MachBufferEntries = n
		// On-chip energy scales roughly linearly with the SRAM size.
		scale := float64(n) / 2048
		cfg.SRAM.MachBufStatic *= scale
		cfg.SRAM.MachBufPerAccess *= scale
		res, err := core.Run(tr, core.GAB(core.DefaultBatch), cfg)
		if err != nil {
			return nil, err
		}
		hit := 0.0
		if d := res.Disp.DigestRecords; d > 0 {
			hit = float64(res.Disp.MachBufHits) / float64(d)
		}
		tb.AddRow(n, pct(hit),
			fmt.Sprintf("%.0f", float64(res.Disp.MemLineReads)/float64(res.Frames)),
			1e3*res.EnergyPerFrame())
	}
	return tb, nil
}

// Fig12c reproduces the mab-size sensitivity on V14 (paper: 4x4 optimal).
func (r *Runner) Fig12c(sizes []int) (*stats.Table, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8, 16}
	}
	sweep, err := r.MabSizeSweep(sizes)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("mab-size", "gab-savings", "gab-match", "meta-overhead")
	for i, s := range sweep {
		n := sizes[i]
		metaShare := float64(s.MetaBytes) / max(float64(s.RawBytes), 1)
		tb.AddRow(fmt.Sprintf("%dx%d", n, n), pct(s.Savings()), pct(s.MatchRate()), pct(metaShare))
	}
	tb.AddRow("paper", "4x4 optimal", "", "")
	return tb, nil
}

// MabSizeSweep is the data behind Fig12c: V14 re-encoded at each mab size
// and written back through GAB MACH at that size, one writeback summary per
// size in order. Each size needs its own synthesis because the codec's block
// size changes.
func (r *Runner) MabSizeSweep(sizes []int) ([]mach.Stats, error) {
	prof, err := video.ProfileByKey("V14")
	if err != nil {
		return nil, err
	}
	out := make([]mach.Stats, 0, len(sizes))
	for _, n := range sizes {
		sc := r.Cfg.Stream
		sc.MabSize = n
		// Frame dimensions must be a multiple of the mab size (and of 8
		// for the generator's dup band): round down to a multiple of 16.
		sc.Width = sc.Width / 16 * 16
		sc.Height = sc.Height / 16 * 16
		st, err := video.Synthesize(prof, sc)
		if err != nil {
			return nil, err
		}
		cfg := mach.DefaultConfig()
		cfg.MabSize = n
		wb, err := mach.NewWriteback(cfg)
		if err != nil {
			return nil, err
		}
		for i, ef := range st.Encoded {
			base := framebuf.RegionFrameBuffers + uint64(i%32)*(1<<22)
			dump := framebuf.RegionMachDumps + uint64(i%32)*(1<<16)
			wb.ProcessFrame(ef.Recon, ef.DisplayIndex, base, dump, nil)
		}
		out = append(out, wb.Stats())
	}
	return out, nil
}

// Fig12d reproduces the hash study: collision behaviour of CRC32 versus
// MD5/SHA1 truncations on real decoded-mab content, plus the CO-MACH deep
// digest (paper: ≈1 colliding 4x4 block per ~200 frames with CRC32, ~zero
// with the 48-bit CO-MACH digest).
func (r *Runner) Fig12d() (*stats.Table, error) {
	key := r.Cfg.Videos[0]
	tr, err := r.trace(key)
	if err != nil {
		return nil, err
	}
	n := tr.Params.MabSize
	mabBytes := n * n * 3
	buf := make([]byte, mabBytes)

	trackers := map[hashes.Func]*hashes.CollisionTracker{}
	for _, f := range hashes.AllFuncs() {
		trackers[f] = hashes.NewCollisionTracker(f)
	}
	deep := hashes.NewDeepCollisionTracker()
	for i := range tr.Frames {
		fr := tr.Frames[i].Decoded
		for y0 := 0; y0 < fr.H; y0 += n {
			for x0 := 0; x0 < fr.W; x0 += n {
				fr.CopyBlock(x0, y0, n, buf)
				for _, t := range trackers {
					t.Observe(buf)
				}
				deep.Observe(buf)
			}
		}
	}

	tb := stats.NewTable("hash", "blocks", "distinct", "collisions", "colliding-blocks/frame")
	frames := float64(len(tr.Frames))
	for _, f := range hashes.AllFuncs() {
		t := trackers[f]
		tb.AddRow(f.String(), t.Blocks, t.Distinct, t.Collisions,
			fmt.Sprintf("%.4f", float64(t.Collisions)/frames))
	}
	tb.AddRow("crc32+crc16 (CO-MACH)", deep.Blocks, "-", deep.Collisions,
		fmt.Sprintf("%.4f", float64(deep.Collisions)/frames))

	// The paper's ~1 collision per 200 4K frames needs ~10^8 observed
	// blocks (birthday effect on 32 bits); at simulation scale the decoded
	// stream is far too small, so a stress series with 500k random blocks
	// shows the same comparison at measurable rates.
	stress := hashes.NewCollisionTracker(hashes.CRC32)
	stressDeep := hashes.NewDeepCollisionTracker()
	// The blocks come from a SplitMix64 stream, which unlike math/rand is
	// stable across Go versions.
	rng := uint64(12345)
	blk := make([]byte, mabBytes)
	for i := 0; i < 500000; i++ {
		for j := range blk {
			blk[j] = byte(hashes.SplitMix64(rng))
			rng += 0x9e3779b97f4a7c15
		}
		stress.Observe(blk)
		stressDeep.Observe(blk)
	}
	tb.AddRow("crc32 (500k random blocks)", stress.Blocks, stress.Distinct, stress.Collisions, "-")
	tb.AddRow("CO-MACH (500k random blocks)", stressDeep.Blocks, "-", stressDeep.Collisions, "-")

	// End-to-end: MACH with collision tracking, with and without CO-MACH.
	for _, co := range []bool{false, true} {
		cfg := mach.DefaultConfig()
		cfg.TrackCollisions = true
		cfg.CoMach = co
		st, err := r.machPass(key, cfg)
		if err != nil {
			return nil, err
		}
		name := "mach false-matches (crc32)"
		if co {
			name = "mach false-matches (CO-MACH)"
		}
		tb.AddRow(name, st.Mabs, "-", st.FalseMatches,
			fmt.Sprintf("%.4f", float64(st.FalseMatches)/frames))
	}
	return tb, nil
}

// Table1 lists the 16 synthetic workloads standing in for the paper's
// videos, with their content composition.
func (r *Runner) Table1() (*stats.Table, error) {
	tb := stats.NewTable("key", "name", "description", "paper-frames", "flat", "ramp", "texture", "noise", "dup", "detail", "cuts-every", "B-frames")
	for _, p := range video.Profiles() {
		tb.AddRow(p.Key, p.Name, p.Description, p.TableFrames,
			fmt.Sprintf("%.2f", p.FlatFraction), fmt.Sprintf("%.2f", p.RampFraction),
			fmt.Sprintf("%.2f", p.TextureFraction), fmt.Sprintf("%.2f", p.NoiseFraction),
			fmt.Sprintf("%.2f", p.DupFraction), fmt.Sprintf("%.2f", p.DetailFraction()),
			p.SceneCutEvery, p.BFrames)
	}
	return tb, nil
}

// Table2 dumps the simulated platform configuration (the reproduction of
// the paper's Table 2).
func (r *Runner) Table2() (*stats.Table, error) {
	p := r.Cfg.Platform
	tb := stats.NewTable("parameter", "value")
	tb.AddRow("DRAM", fmt.Sprintf("%d channels x %d ranks x %d banks, %dB rows, %dB lines",
		p.DRAM.Channels, p.DRAM.RanksPerChannel, p.DRAM.BanksPerRank, p.DRAM.RowBytes, p.DRAM.LineBytes))
	tb.AddRow("DRAM timing", fmt.Sprintf("tRCD=%v tRP=%v tCL=%v tBurst=%v rowOpenTimeout=%v",
		p.DRAM.TRCD, p.DRAM.TRP, p.DRAM.TCL, p.DRAM.TBurst, p.DRAM.RowOpenTimeout))
	tb.AddRow("VD", fmt.Sprintf("%.2fW@%.0fMHz / %.2fW@%.0fMHz, %dKB decode cache",
		p.Decoder.PowerLow, float64(p.Decoder.FreqLow)/1e6, p.Decoder.PowerHigh, float64(p.Decoder.FreqHigh)/1e6,
		p.Decoder.CacheBytes/1024))
	tb.AddRow("Display", fmt.Sprintf("%dHz, %.2fW, %dKB display cache, %d-entry MACH buffer",
		p.Display.FPS, p.Display.Power, p.Display.DisplayCacheBytes/1024, p.Display.MachBufferEntries))
	tb.AddRow("MACH", fmt.Sprintf("%d MACHs x %d entries x %d-way (%d B SRAM), %dx%d mabs",
		p.Mach.NumMACHs, p.Mach.EntriesPerMACH, p.Mach.Ways, p.Mach.SRAMBytes(), p.Mach.MabSize, p.Mach.MabSize))
	tb.AddRow("Power states", fmt.Sprintf("S1 %v/%.2fmJ, S3 %v/%.2fmJ, idle %.0fmW",
		p.Power.S1Transition, 1e3*p.Power.S1TransitionEnergy,
		p.Power.S3Transition, 1e3*p.Power.S3TransitionEnergy, 1e3*p.Power.IdlePower))
	tb.AddRow("Workload scale", fmt.Sprintf("%dx%d, %d frames/video, quant %d",
		r.Cfg.Stream.Width, r.Cfg.Stream.Height, r.Cfg.Stream.NumFrames, r.Cfg.Stream.Quant))
	return tb, nil
}

// DCC reproduces the §6.2 combination study: Delta Color Compression alone
// versus GAB+DCC (paper: the combination saves ≈18% more bandwidth than
// plain DCC because MACH removes repeated blocks DCC can only shrink).
func (r *Runner) DCC() (*stats.Table, error) {
	key := r.Cfg.Videos[0]
	tr, err := r.trace(key)
	if err != nil {
		return nil, err
	}
	n := tr.Params.MabSize
	mabBytes := n * n * 3
	buf := make([]byte, mabBytes)

	// DCC alone: every mab compressed independently.
	var dccAlone mach.DCCStats
	for i := range tr.Frames {
		fr := tr.Frames[i].Decoded
		for y0 := 0; y0 < fr.H; y0 += n {
			for x0 := 0; x0 < fr.W; x0 += n {
				fr.CopyBlock(x0, y0, n, buf)
				dccAlone.Observe(buf)
			}
		}
	}

	// GAB+DCC: MACH dedups first; only stored (unique) content is DCC
	// compressed, matches cost their metadata.
	cfg := mach.DefaultConfig()
	cfg.MabSize = n
	wb, err := mach.NewWriteback(cfg)
	if err != nil {
		return nil, err
	}
	var combinedBytes, rawBytes uint64
	for i := range tr.Frames {
		f := &tr.Frames[i]
		base := framebuf.RegionFrameBuffers + uint64(i%32)*(1<<22)
		dump := framebuf.RegionMachDumps + uint64(i%32)*(1<<16)
		layout := wb.ProcessFrame(f.Decoded, f.DisplayIndex, base, dump, nil)
		fr := f.Decoded
		idx := 0
		for y0 := 0; y0 < fr.H; y0 += n {
			for x0 := 0; x0 < fr.W; x0 += n {
				rec := layout.Records[idx]
				idx++
				rawBytes += uint64(mabBytes)
				if rec.Kind == framebuf.RecFull {
					fr.CopyBlock(x0, y0, n, buf)
					combinedBytes += uint64(mach.DCCSize(buf))
					combinedBytes += 4 // pointer
					if cfg.Gradient {
						combinedBytes += 3
					}
				} else {
					combinedBytes += uint64(cfg.MetaBytesPerMatch())
				}
			}
		}
	}
	combinedSavings := 1 - float64(combinedBytes)/float64(rawBytes)

	tb := stats.NewTable("scheme", "bandwidth-savings")
	tb.AddRow("DCC alone", pct(dccAlone.Savings()))
	tb.AddRow("GAB alone", pct(wb.Stats().Savings()))
	tb.AddRow("GAB + DCC", pct(combinedSavings))
	tb.AddRow("GAB+DCC advantage over DCC", pct(combinedSavings-dccAlone.Savings()))
	tb.AddRow("paper advantage", "~18%")
	return tb, nil
}
