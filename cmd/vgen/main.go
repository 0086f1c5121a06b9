// Command vgen synthesizes the Table 1 workload videos, encodes them into
// traces and summarizes them, with their content-similarity statistics.
//
//	vgen -list                          # show the 16 profiles
//	vgen -workload V7 -frames 60 -stats # content similarity of one workload
//	vgen -workload V7 -json             # trace summary as JSON
//
// Exit codes: 0 success, 1 synthesis/IO error, 2 invalid usage.
package main

import (
	"flag"
	"fmt"
	"os"

	"mach/internal/core"
	"mach/internal/mach"
	"mach/internal/stats"
	"mach/internal/video"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list workload profiles")
		workload = flag.String("workload", "V1", "workload key")
		frames   = flag.Int("frames", 60, "frames to synthesize")
		width    = flag.Int("width", 320, "frame width")
		height   = flag.Int("height", 180, "frame height")
		seed     = flag.Int64("seed", 1, "generator seed")
		showStat = flag.Bool("stats", false, "print content-similarity statistics")
		jsonOut  = flag.Bool("json", false, "print the trace summary as JSON")
	)
	flag.Parse()

	if *list {
		tb := stats.NewTable("key", "name", "description", "fps", "GOP", "B", "cuts")
		for _, p := range video.Profiles() {
			tb.AddRow(p.Key, p.Name, p.Description, p.FPS, p.GOPLength, p.BFrames, p.SceneCutEvery)
		}
		fmt.Print(tb)
		return
	}

	const mabSize = 4
	if *frames <= 0 {
		usage("-frames %d: want a positive frame count", *frames)
	}
	if *width <= 0 || *height <= 0 || *width%mabSize != 0 || *height%mabSize != 0 {
		usage("-width/-height %dx%d: want positive multiples of the %d-pixel mab size", *width, *height, mabSize)
	}
	if _, err := video.ProfileByKey(*workload); err != nil {
		usage("-workload %s: unknown key (run `vgen -list` for the V1..V16 table)", *workload)
	}

	sc := video.StreamConfig{Width: *width, Height: *height, NumFrames: *frames, Seed: *seed, MabSize: mabSize, Quant: 8}
	tr, err := core.BuildTrace(*workload, sc)
	if err != nil {
		fatal(err)
	}
	if err := tr.Validate(); err != nil {
		fatal(err)
	}

	if *jsonOut {
		if err := tr.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
	} else {
		s := tr.Summarize()
		fmt.Printf("%s: %d frames %dx%d, %d KB encoded, mabs I/P/B = %d/%d/%d\n",
			s.Profile, s.Frames, s.Width, s.Height, s.EncodedBytes/1024, s.MabsI, s.MabsP, s.MabsB)
	}

	if *showStat {
		for _, gradient := range []bool{false, true} {
			an := mach.NewAnalyzer(16, tr.Params.MabSize, gradient)
			for i := range tr.Frames {
				an.ProcessFrame(tr.Frames[i].Decoded)
			}
			mode := "mab"
			if gradient {
				mode = "gab"
			}
			fmt.Printf("%s: intra %.1f%%  inter %.1f%%  none %.1f%%  ideal savings %.1f%%\n",
				mode, 100*an.IntraRate(), 100*an.InterRate(), 100*an.NoMatchRate(), 100*an.Savings())
		}
	}
}

// usage reports an invalid invocation and exits with code 2 so scripts can
// distinguish operator error from synthesis failure.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "vgen: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run `vgen -h` for flag documentation")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "vgen:", err)
	os.Exit(1)
}
