// Command machsim runs one workload through one scheme (or all six Fig 11
// schemes) and prints the timing/energy report.
//
// Examples:
//
//	machsim -workload V1 -scheme gab -frames 120
//	machsim -workload V8 -all -frames 240 -width 640 -height 360
//	machsim -workload V3 -scheme rts -net flaky -stall-rate 0.2 -net-seed 7
//	machsim -workload V3 -scheme rts -net lte -bandwidth 1.6 -abr buffer
//	machsim -workload V3 -scheme gab -net lte -sessions 4 -abr throughput
//	machsim -workload V1 -frames 2000 -checkpoint run.mckp -checkpoint-every 64
//	machsim -workload V1 -frames 2000 -checkpoint run.mckp -resume
//
// Long runs can be made crash-safe with -checkpoint: the frame cursor is
// written atomically every -checkpoint-every frames. To interrupt a run,
// kill it; -resume replays the run to the last cursor on disk and continues
// to a bit-identical result (missing file = fresh start; damaged file = hard
// error).
//
// Exit codes: 0 success, 1 model/runtime error (including a corrupt
// checkpoint), 2 invalid usage (bad flag values such as a width that is not
// a multiple of the mab size, an unknown workload/scheme key, or an unknown
// network profile).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"

	"mach"
	"mach/internal/stats"
)

const (
	exitErr   = 1
	exitUsage = 2
)

func main() {
	var (
		workload = flag.String("workload", "V1", "workload key (V1..V16)")
		scheme   = flag.String("scheme", "gab", "scheme: baseline|batching|racing|race-to-sleep|mab|gab")
		all      = flag.Bool("all", false, "run all six standard schemes and print the comparison")
		frames   = flag.Int("frames", 120, "number of video frames to synthesize")
		width    = flag.Int("width", 320, "frame width (multiple of the mab size)")
		height   = flag.Int("height", 180, "frame height (multiple of the mab size)")
		batch    = flag.Int("batch", mach.DefaultBatch, "batch depth for batching schemes")
		seed     = flag.Int64("seed", 1, "workload generator seed")
		verbose  = flag.Bool("v", false, "print the full per-run breakdown (with -all)")

		ckptPath  = flag.String("checkpoint", "", "checkpoint file: written atomically every -checkpoint-every frames, removed on success (single-scheme runs only)")
		ckptEvery = flag.Int("checkpoint-every", 32, "frames between periodic checkpoints (with -checkpoint)")
		resume    = flag.Bool("resume", false, "resume from -checkpoint; a missing file starts fresh, a damaged one is a hard error")
		canonical = flag.Bool("canonical", false, "print the canonical JSON result instead of the report (stable across runs; used to prove resume equivalence)")

		net       = flag.String("net", "", "network profile enabling the delivery fault model: lte|wifi|3g|flaky (empty = perfect network)")
		bandwidth = flag.Float64("bandwidth", 0, "override link bandwidth in Mbit/s (requires -net)")
		stallRate = flag.Float64("stall-rate", -1, "override per-segment stall-injection probability [0,1] (requires -net)")
		lossRate  = flag.Float64("loss-rate", -1, "override per-attempt segment-loss probability [0,1] (requires -net)")
		netSeed   = flag.Int64("net-seed", 0, "override the delivery model seed (requires -net)")

		abrPolicy   = flag.String("abr", "", "adaptive-bitrate policy: fixed|buffer|throughput (requires -net; empty = native stream only)")
		ladderPath  = flag.String("ladder", "", "MACHLADDER manifest file overriding the built-in bitrate ladder (requires -abr)")
		sessions    = flag.Int("sessions", 0, "share the link with this many sessions through a contended bottleneck (requires -net; 0/1 = dedicated link)")
		contendSeed = flag.Int64("contend-seed", 0, "override the bottleneck contention seed (requires -sessions)")
	)
	flag.Parse()

	sc := mach.DefaultStreamConfig()
	sc.Width, sc.Height, sc.NumFrames, sc.Seed = *width, *height, *frames, *seed

	if *frames <= 0 {
		usage("-frames %d: want a positive frame count", *frames)
	}
	if *batch < 1 || *batch > 64 {
		usage("-batch %d: want a batch depth in [1,64]", *batch)
	}
	if sc.MabSize > 0 && (*width <= 0 || *height <= 0 || *width%sc.MabSize != 0 || *height%sc.MabSize != 0) {
		usage("-width/-height %dx%d: want positive multiples of the %d-pixel mab size", *width, *height, sc.MabSize)
	}
	if _, err := mach.ProfileByKey(*workload); err != nil {
		usage("-workload %s: unknown key (run `vgen -list` for the V1..V16 table)", *workload)
	}

	cfg := mach.DefaultConfig()
	if *net != "" {
		d, err := mach.DeliveryByName(*net)
		if err != nil {
			usage("-net %s: %v", *net, err)
		}
		if *bandwidth != 0 {
			if *bandwidth < 0 {
				usage("-bandwidth %g: want Mbit/s > 0", *bandwidth)
			}
			d.BandwidthBps = *bandwidth * 1e6 / 8
		}
		if *stallRate >= 0 {
			if *stallRate > 1 {
				usage("-stall-rate %g: want a probability in [0,1]", *stallRate)
			}
			d.StallRate = *stallRate
		}
		if *lossRate >= 0 {
			if *lossRate > 1 {
				usage("-loss-rate %g: want a probability in [0,1]", *lossRate)
			}
			d.LossRate = *lossRate
		}
		if *netSeed != 0 {
			d.Seed = *netSeed
		}
		if *sessions < 0 {
			usage("-sessions %d: want a non-negative session count", *sessions)
		}
		if *sessions > 1 {
			d.Bottleneck = mach.Bottleneck{Sessions: *sessions, Seed: *contendSeed}
		} else if *contendSeed != 0 {
			usage("-contend-seed needs -sessions > 1 to enable the shared bottleneck")
		}
		cfg.Delivery = d
		if *abrPolicy != "" {
			if _, err := mach.ABRPolicies(*abrPolicy); err != nil {
				usage("-abr %s: %v", *abrPolicy, err)
			}
			cfg.ABR = mach.ABRConfig{Enabled: true, Policy: *abrPolicy, FixedRung: -1}
			if *ladderPath != "" {
				l, err := mach.LoadLadder(*ladderPath)
				if err != nil {
					fatal(err)
				}
				cfg.ABR.Ladder = l
			}
		} else if *ladderPath != "" {
			usage("-ladder needs -abr to enable the adaptive-bitrate controller")
		}
	} else if *bandwidth != 0 || *stallRate >= 0 || *lossRate >= 0 || *netSeed != 0 ||
		*abrPolicy != "" || *ladderPath != "" || *sessions != 0 || *contendSeed != 0 {
		usage("-bandwidth/-stall-rate/-loss-rate/-net-seed/-abr/-ladder/-sessions/-contend-seed need -net to select a profile")
	}

	if *all && (*ckptPath != "" || *resume || *canonical) {
		usage("-checkpoint/-resume/-canonical apply to a single-scheme run, not -all")
	}
	if *resume && *ckptPath == "" {
		usage("-resume needs -checkpoint to name the file")
	}
	if *ckptEvery < 1 {
		usage("-checkpoint-every %d: want a positive frame interval", *ckptEvery)
	}

	// Resolve the scheme before synthesis so a typo fails fast.
	var s mach.Scheme
	if !*all {
		var err error
		if s, err = mach.SchemeByName(*scheme, *batch); err != nil {
			usage("-scheme %s: %v", *scheme, err)
		}
	}

	fmt.Fprintf(os.Stderr, "synthesizing %s (%d frames at %dx%d)...\n", *workload, *frames, *width, *height)
	tr, err := mach.BuildTrace(*workload, sc)
	if err != nil {
		fatal(err)
	}

	if *all {
		results, err := mach.RunStandard(tr, cfg)
		if err != nil {
			fatal(err)
		}
		base := results[0]
		hdr := []string{"scheme", "mJ/frame", "norm", "drops", "S3%", "mem-acc", "match%"}
		if cfg.Delivery.Enabled {
			hdr = append(hdr, "rebuf", "rebuf-ms", "retries", "radio-mJ")
		}
		if cfg.ABR.Enabled {
			hdr = append(hdr, "switches", "min-rung")
		}
		tb := stats.NewTable(hdr...)
		for _, r := range results {
			row := []any{r.Scheme.Name,
				fmt.Sprintf("%.2f", 1e3*r.EnergyPerFrame()),
				fmt.Sprintf("%.3f", r.NormalizedTo(base)),
				r.Drops,
				fmt.Sprintf("%.1f", 100*r.S3Residency()),
				r.Mem.Accesses(),
				fmt.Sprintf("%.1f", 100*r.Mach.MatchRate())}
			if cfg.Delivery.Enabled {
				row = append(row, r.Rebuffers,
					fmt.Sprintf("%.1f", r.RebufferTime.Milliseconds()),
					r.Net.Retries,
					fmt.Sprintf("%.2f", 1e3*r.Radio.TotalEnergy()))
			}
			if cfg.ABR.Enabled {
				row = append(row, r.ABR.Switches, r.ABR.MinRung)
			}
			tb.AddRow(row...)
		}
		fmt.Print(tb)
		if *verbose {
			for _, r := range results {
				fmt.Println()
				fmt.Print(r)
			}
		}
		return
	}

	// Single-scheme path: drive the step machine directly so the run can be
	// checkpointed and resumed.
	var runner *mach.Runner
	if *resume {
		runner, err = mach.LoadCheckpoint(*ckptPath, tr, s, cfg)
		switch {
		case err == nil:
			fmt.Fprintf(os.Stderr, "machsim: resumed %s from frame %d/%d\n",
				*ckptPath, runner.Frame(), len(tr.Frames))
		case errors.Is(err, fs.ErrNotExist):
			fmt.Fprintf(os.Stderr, "machsim: no checkpoint at %s, starting fresh\n", *ckptPath)
			runner = nil
		default:
			fatal(err)
		}
	}
	if runner == nil {
		if runner, err = mach.NewRunner(tr, s, cfg); err != nil {
			fatal(err)
		}
	}

	for !runner.Done() {
		runner.StepFrame()
		if *ckptPath != "" && runner.Frame()%*ckptEvery == 0 {
			if err := runner.SaveCheckpoint(*ckptPath); err != nil {
				fatal(err)
			}
		}
	}
	r, err := runner.Finish()
	if err != nil {
		fatal(err)
	}
	if *ckptPath != "" {
		// The run completed; a stale checkpoint would only invite resuming
		// a finished run.
		if err := os.Remove(*ckptPath); err != nil && !errors.Is(err, fs.ErrNotExist) {
			fatal(err)
		}
	}
	if *canonical {
		b, err := r.CanonicalJSON()
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(r)
}

// usage reports an invalid invocation and exits with the usage code so
// scripts can distinguish operator error from model failure.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "machsim: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run `machsim -h` for flag documentation")
	os.Exit(exitUsage)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "machsim:", err)
	os.Exit(exitErr)
}
