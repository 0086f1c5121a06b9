// Command calibrate prints the measurements the cycle-cost and energy
// calibration relies on: the baseline per-frame decode-time distribution
// (against the paper's Region I-IV targets: 4% drops / 12% short slack /
// 37% S1 / 40%+ S3), the sleep-state break-evens, the energy split, and the
// content-match rates (against 42% intra / 15% inter / 43% none).
//
// Exit codes: 0 success, 1 a trace build or simulation run failed, 2
// invalid flag values.
package main

import (
	"flag"
	"fmt"
	"os"

	"mach"
	"mach/internal/energy"
	"mach/internal/power"
	"mach/internal/sim"
)

func main() {
	var (
		frames = flag.Int("frames", 120, "frames per workload")
		width  = flag.Int("width", 320, "frame width")
		height = flag.Int("height", 180, "frame height")
		nvids  = flag.Int("videos", 4, "number of workloads to mix (V1..Vn)")
	)
	flag.Parse()

	keys := mach.WorkloadKeys()
	sc := mach.DefaultStreamConfig()
	switch {
	case *frames <= 0:
		usage("-frames %d: want a positive frame count", *frames)
	case *nvids < 1 || *nvids > len(keys):
		usage("-videos %d: want a workload count in [1,%d]", *nvids, len(keys))
	case sc.MabSize > 0 && (*width <= 0 || *height <= 0 || *width%sc.MabSize != 0 || *height%sc.MabSize != 0):
		usage("-width/-height %dx%d: want positive multiples of the %d-pixel mab size", *width, *height, sc.MabSize)
	}
	sc.Width, sc.Height, sc.NumFrames = *width, *height, *frames
	keys = keys[:*nvids]

	cfg := mach.DefaultConfig()
	pcfg := power.DefaultConfig()
	fmt.Printf("break-even: S1 %v  S3 %v (period 16.667ms)\n\n",
		pcfg.BreakEven(power.S1), pcfg.BreakEven(power.S3))

	var all []float64
	for _, key := range keys {
		tr, err := mach.BuildTrace(key, sc)
		if err != nil {
			fatal(err)
		}
		run := func(s mach.Scheme) *mach.Result {
			res, err := mach.Run(tr, s, cfg)
			if err != nil {
				fatal(err)
			}
			return res
		}
		res := run(mach.Baseline())
		rc := res.Regions(sim.FromSeconds(1.0/60), pcfg)
		n := float64(res.Frames)
		fmt.Printf("%-4s drops=%2d  regions I/II/III/IV = %4.1f%% %4.1f%% %4.1f%% %4.1f%%  ",
			key, res.Drops, 100*float64(rc.I)/n, 100*float64(rc.II)/n, 100*float64(rc.III)/n, 100*float64(rc.IV)/n)
		fmt.Printf("t50=%.1fms t90=%.1fms t99=%.1fms\n",
			1e3*res.FrameTimes.Quantile(0.5), 1e3*res.FrameTimes.Quantile(0.9), 1e3*res.FrameTimes.Quantile(0.99))
		all = append(all, res.FrameTimes.Values()...)

		if key == keys[0] {
			tot := res.TotalEnergy()
			fmt.Printf("     baseline energy split: ")
			for _, k := range energy.Components() {
				if v := res.Energy.Get(k); v > 0 {
					fmt.Printf("%s %.1f%%  ", k, 100*v/tot)
				}
			}
			fmt.Println()
			g := run(mach.GAB(8))
			m := run(mach.MAB(8))
			fmt.Printf("     %s matches: gab intra %.1f%% inter %.1f%% none %.1f%% | mab intra %.1f%% inter %.1f%%\n",
				key,
				pct(g.Mach.IntraMatches, g.Mach.Mabs), pct(g.Mach.InterMatches, g.Mach.Mabs), pct(g.Mach.NoMatches, g.Mach.Mabs),
				pct(m.Mach.IntraMatches, m.Mach.Mabs), pct(m.Mach.InterMatches, m.Mach.Mabs))
			fmt.Printf("     gab savings %.1f%%  mab savings %.1f%%  vd-side writes: base=%d gab=%d\n",
				100*g.Mach.Savings(), 100*m.Mach.Savings(), res.Mach.LineWrites, g.Mach.LineWrites)
			fmt.Printf("     display line reads: base=%d gab=%d (%.1f%% saving)\n",
				res.Disp.MemLineReads, g.Disp.MemLineReads,
				100*(1-float64(g.Disp.MemLineReads)/float64(res.Disp.MemLineReads)))
			fmt.Printf("     dram base: hits=%d conflict=%d closed=%d timeoutPre=%d reads=%d writes=%d refHit=%.2f\n",
				res.Mem.RowHits, res.Mem.RowMisses, res.Mem.RowClosed, res.Mem.TimeoutPre, res.Mem.Reads, res.Mem.Writes, res.Dec.RefHitRate())
			r2 := run(mach.Racing())
			fmt.Printf("     Fig5: activates base=%d racing=%d (%.1f%% fewer)  actpre energy %.2f->%.2f mJ\n",
				res.Mem.Activates, r2.Mem.Activates,
				100*(1-float64(r2.Mem.Activates)/float64(res.Mem.Activates)),
				1e3*res.MemEnergy.ActPre, 1e3*r2.MemEnergy.ActPre)
			s2 := run(mach.RaceToSleep(8))
			fmt.Printf("     race-to-sleep: S3 %.1f%% (baseline %.1f%%)  norm energy B=%.3f R=%.3f S=%.3f\n",
				100*s2.S3Residency(), 100*res.S3Residency(),
				run(mach.Batching(8)).TotalEnergy()/res.TotalEnergy(), r2.TotalEnergy()/res.TotalEnergy(), s2.TotalEnergy()/res.TotalEnergy())
		}
	}

	// Aggregate region split.
	period := 1.0 / 60
	beS1 := pcfg.BreakEven(power.S1).Seconds()
	beS3 := pcfg.BreakEven(power.S3).Seconds()
	var r1, r2, r3, r4 int
	for _, d := range all {
		slack := period - d
		switch {
		case slack < 0:
			r1++
		case slack < beS1:
			r2++
		case slack < beS3:
			r3++
		default:
			r4++
		}
	}
	n := float64(len(all))
	fmt.Printf("\nAGGREGATE regions I/II/III/IV = %.1f%% %.1f%% %.1f%% %.1f%%  (paper: 4/12/37/40+)\n",
		100*float64(r1)/n, 100*float64(r2)/n, 100*float64(r3)/n, 100*float64(r4)/n)
}

// usage reports an invalid flag value and exits with the usage code.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "calibrate: "+format+"\n", args...)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}

func pct(x, n int64) float64 {
	if n == 0 {
		return 0
	}
	return 100 * float64(x) / float64(n)
}
