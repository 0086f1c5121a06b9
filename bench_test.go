// Benchmark harness: one benchmark per table and figure of the paper (the
// mapping lives in DESIGN.md). Each benchmark regenerates its figure's rows
// through internal/experiments and logs the table; run with
//
//	go test -bench=. -benchmem
//	go test -bench=Fig11 -benchtime=1x -v
//
// plus microbenchmarks of the hot primitives (codec, digests, MACH, DRAM).
package mach_test

import (
	"fmt"
	"testing"

	"mach"
	"mach/internal/codec"
	"mach/internal/dram"
	"mach/internal/experiments"
	"mach/internal/framebuf"
	"mach/internal/hashes"
	machcache "mach/internal/mach"
	"mach/internal/sim"
	"mach/internal/stats"
	"mach/internal/video"
)

// benchConfig is the experiment scale used by the figure benchmarks: the
// calibrated reference resolution with a bounded frame count per workload.
func benchConfig(videos int, frames int) experiments.Config {
	cfg := experiments.Default()
	cfg.Stream.NumFrames = frames
	if videos < len(cfg.Videos) {
		cfg.Videos = cfg.Videos[:videos]
	}
	return cfg
}

// runFigure runs one experiment per iteration and logs its table once.
func runFigure(b *testing.B, cfg experiments.Config, f func(r *experiments.Runner) (*stats.Table, error)) {
	b.Helper()
	r := experiments.NewRunner(cfg)
	for i := 0; i < b.N; i++ {
		tb, err := f(r)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Logf("\n%s", tb)
		}
	}
}

func BenchmarkTable1Workloads(b *testing.B) {
	runFigure(b, benchConfig(1, 8), func(r *experiments.Runner) (*stats.Table, error) { return r.Table1() })
}

func BenchmarkTable2Config(b *testing.B) {
	runFigure(b, benchConfig(1, 8), func(r *experiments.Runner) (*stats.Table, error) { return r.Table2() })
}

func BenchmarkFig01aBreakdown(b *testing.B) {
	runFigure(b, benchConfig(1, 60), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig1a() })
}

func BenchmarkFig02BaselineCDF(b *testing.B) {
	runFigure(b, benchConfig(4, 60), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig2() })
}

func BenchmarkFig04BatchSweep(b *testing.B) {
	runFigure(b, benchConfig(1, 60), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig4(nil) })
}

func BenchmarkFig05RowBuffer(b *testing.B) {
	runFigure(b, benchConfig(1, 60), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig5() })
}

func BenchmarkFig06RaceToSleepGrid(b *testing.B) {
	runFigure(b, benchConfig(1, 60), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig6(nil) })
}

func BenchmarkFig07aCacheSweep(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig7a(nil) })
}

func BenchmarkFig07bContentMatch(b *testing.B) {
	runFigure(b, benchConfig(4, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig7b() })
}

func BenchmarkFig09aMachSavings(b *testing.B) {
	runFigure(b, benchConfig(4, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig9a() })
}

func BenchmarkFig09bTopDigests(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig9b() })
}

func BenchmarkFig10cDisplayCacheSweep(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig10c(nil) })
}

func BenchmarkFig10dGabTypes(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig10d() })
}

func BenchmarkFig10eDisplaySavings(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig10e() })
}

func BenchmarkFig11AllSchemes(b *testing.B) {
	runFigure(b, benchConfig(16, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig11() })
}

func BenchmarkFig12aMachCount(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig12a(nil) })
}

func BenchmarkFig12bMachBufferSweep(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig12b(nil) })
}

func BenchmarkFig12cMabSize(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig12c(nil) })
}

func BenchmarkFig12dHashes(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Fig12d() })
}

func BenchmarkDCCCombination(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.DCC() })
}

// BenchmarkAdaptiveBatching covers §3.3's adaptivity claim: batching
// whatever the bursty network delivered still saves energy.
func BenchmarkAdaptiveBatching(b *testing.B) {
	sc := mach.DefaultStreamConfig()
	sc.NumFrames = 48
	tr, err := mach.BuildTrace("V11", sc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mach.DefaultConfig()
	for i := 0; i < b.N; i++ {
		base, err := mach.Run(tr, mach.Baseline(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		tb := stats.NewTable("buffering", "norm-energy", "drops")
		for _, p := range []struct {
			name    string
			pattern []int
			max     int
		}{
			{"always-2", []int{2}, 2},
			{"bursty-8/2", []int{8, 2}, 8},
			{"always-8", []int{8}, 8},
		} {
			res, err := mach.Run(tr, mach.AdaptiveBatching(p.max, p.pattern), cfg)
			if err != nil {
				b.Fatal(err)
			}
			tb.AddRow(p.name, fmt.Sprintf("%.3f", res.NormalizedTo(base)), res.Drops)
		}
		if i == 0 {
			b.Logf("\n%s", tb)
		}
	}
}

// BenchmarkAblationCoalescing measures the §4.4 coalescing write buffers:
// without them every pointer/base write costs a full line transaction.
func BenchmarkAblationCoalescing(b *testing.B) {
	sc := mach.DefaultStreamConfig()
	sc.NumFrames = 48
	tr, err := mach.BuildTrace("V1", sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("coalescing", "line-writes/frame", "norm-energy")
		var base float64
		for _, coalesce := range []bool{true, false} {
			cfg := mach.DefaultConfig()
			cfg.Mach.Coalesce = coalesce
			res, err := mach.Run(tr, mach.GAB(mach.DefaultBatch), cfg)
			if err != nil {
				b.Fatal(err)
			}
			if coalesce {
				base = res.TotalEnergy()
			}
			tb.AddRow(fmt.Sprintf("%v", coalesce),
				fmt.Sprintf("%.0f", float64(res.Mach.LineWrites)/float64(res.Frames)),
				fmt.Sprintf("%.3f", res.TotalEnergy()/base))
		}
		if i == 0 {
			b.Logf("\n%s", tb)
		}
	}
}

// BenchmarkAblationRowTimeout sweeps the DRAM row-open timeout, the
// mechanism behind the racing benefit (Fig 5a).
func BenchmarkAblationRowTimeout(b *testing.B) {
	sc := mach.DefaultStreamConfig()
	sc.NumFrames = 48
	tr, err := mach.BuildTrace("V1", sc)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("timeout-us", "base-activates/frame", "race-activates/frame", "racing-benefit")
		for _, us := range []float64{3, 6, 12, 24, 48} {
			cfg := mach.DefaultConfig()
			cfg.DRAM.RowOpenTimeout = sim.FromNanoseconds(sim.Nanoseconds(us * 1000))
			lo, err := mach.Run(tr, mach.Baseline(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			hi, err := mach.Run(tr, mach.Racing(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			f := float64(lo.Frames)
			tb.AddRow(us,
				fmt.Sprintf("%.0f", float64(lo.Mem.Activates)/f),
				fmt.Sprintf("%.0f", float64(hi.Mem.Activates)/f),
				fmt.Sprintf("%.1f%%", 100*(1-float64(hi.Mem.Activates)/float64(lo.Mem.Activates))))
		}
		if i == 0 {
			b.Logf("\n%s", tb)
		}
	}
}

// BenchmarkSec64Recording regenerates the §6.4 recording-pipeline study.
func BenchmarkSec64Recording(b *testing.B) {
	runFigure(b, benchConfig(1, 24), func(r *experiments.Runner) (*stats.Table, error) { return r.Record() })
}

// BenchmarkRelatedTE compares checksum transaction elimination to MACH.
func BenchmarkRelatedTE(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.RelatedTE() })
}

// BenchmarkAblationReplacement ablates the MACH victim policy.
func BenchmarkAblationReplacement(b *testing.B) {
	runFigure(b, benchConfig(1, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.Replacement() })
}

// BenchmarkColorSpace verifies the colour-space generality claim (§4).
func BenchmarkColorSpace(b *testing.B) {
	runFigure(b, benchConfig(1, 32), func(r *experiments.Runner) (*stats.Table, error) { return r.ColorSpace() })
}

// BenchmarkAblationContention sweeps background SoC traffic.
func BenchmarkAblationContention(b *testing.B) {
	runFigure(b, benchConfig(1, 32), func(r *experiments.Runner) (*stats.Table, error) { return r.Contention(nil) })
}

// BenchmarkRelatedSlackPrediction compares the history-based DVFS
// comparator of [57] (the §7 related-work contrast) to race-to-sleep.
func BenchmarkRelatedSlackPrediction(b *testing.B) {
	runFigure(b, benchConfig(3, 48), func(r *experiments.Runner) (*stats.Table, error) { return r.SlackPrediction() })
}

// --- Microbenchmarks of the hot primitives --------------------------------

func benchFrame(b *testing.B) *codec.Frame {
	b.Helper()
	prof, err := video.ProfileByKey("V1")
	if err != nil {
		b.Fatal(err)
	}
	g, err := video.NewGenerator(prof, 320, 180, 1)
	if err != nil {
		b.Fatal(err)
	}
	return g.Frame()
}

func BenchmarkCodecEncodeFrame(b *testing.B) {
	fr := benchFrame(b)
	p := codec.DefaultParams(320, 180)
	b.SetBytes(int64(fr.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := codec.NewEncoder(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := enc.Push(fr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCodecDecodeFrame(b *testing.B) {
	fr := benchFrame(b)
	p := codec.DefaultParams(320, 180)
	enc, _ := codec.NewEncoder(p)
	efs, err := enc.Push(fr)
	if err != nil || len(efs) != 1 {
		b.Fatalf("encode: %v", err)
	}
	b.SetBytes(int64(fr.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, _ := codec.NewDecoder(p)
		if _, _, err := dec.Decode(efs[0]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCRC32Digest(b *testing.B) {
	blk := make([]byte, 48)
	for i := range blk {
		blk[i] = byte(i * 7)
	}
	b.SetBytes(48)
	for i := 0; i < b.N; i++ {
		hashes.Digest32(hashes.CRC32, blk)
	}
}

func BenchmarkCRC16Digest(b *testing.B) {
	blk := make([]byte, 48)
	b.SetBytes(48)
	for i := 0; i < b.N; i++ {
		hashes.CRC16CCITT(blk)
	}
}

func BenchmarkGabTransform(b *testing.B) {
	mab := make([]byte, 48)
	gab := make([]byte, 48)
	var base [3]byte
	b.SetBytes(48)
	for i := 0; i < b.N; i++ {
		machcache.ComputeGab(mab, &base, gab)
	}
}

func BenchmarkMachWritebackFrame(b *testing.B) {
	fr := benchFrame(b)
	b.SetBytes(int64(fr.SizeBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wb, err := machcache.NewWriteback(machcache.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		wb.ProcessFrame(fr, 0, framebuf.RegionFrameBuffers, framebuf.RegionMachDumps, nil)
	}
}

func BenchmarkDRAMSequentialAccess(b *testing.B) {
	m := dram.New(dram.DefaultConfig())
	now := sim.Time(0)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		done := m.Access(now, uint64(i)*64, i%2 == 0)
		if done > now {
			now = done
		}
	}
}

func BenchmarkPipelineFrameGAB(b *testing.B) {
	sc := mach.DefaultStreamConfig()
	sc.NumFrames = 48
	tr, err := mach.BuildTrace("V1", sc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := mach.DefaultConfig()
	cfg.CollectFrameSamples = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := mach.Run(tr, mach.GAB(mach.DefaultBatch), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Frames != 48 {
			b.Fatal("frame count")
		}
	}
}
