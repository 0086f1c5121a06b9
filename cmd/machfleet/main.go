// Command machfleet runs a fleet of lightweight viewer sessions — distinct
// workloads, seeded per-session churn and bandwidth, optional cell-local
// shared bottlenecks — under the sharded crash-safe supervisor and prints the
// population aggregate.
//
// Examples:
//
//	machfleet -sessions 256 -scheme gab -net lte
//	machfleet -sessions 64 -shards 8 -workers 4 -canonical
//	machfleet -sessions 10000 -checkpoint-dir run.d -checkpoint-every 64
//	machfleet -sessions 10000 -checkpoint-dir run.d -resume
//	machfleet -sessions 64 -inject-panic-rate 0.05 -inject-panic-seed 7
//
// Long runs are crash-safe with -checkpoint-dir: each shard writes its own
// manifest atomically every -checkpoint-every sessions. To interrupt a run,
// kill it; -resume then continues bit-identically from the manifests on
// disk (a missing manifest restarts that shard; a damaged one is logged and
// recomputed). The aggregate is invariant under -shards and -workers. A
// resume may change -workers and -checkpoint-every; a changed -shards
// recomputes every shard, since the manifests name their shard ranges.
//
// Exit codes: 0 success (injected faults contained included), 1 model or
// runtime error, 2 invalid usage.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"mach"
	"mach/internal/fleet"
)

const (
	exitErr   = 1
	exitUsage = 2
)

func main() {
	var (
		sessions  = flag.Int("sessions", 64, "number of viewer sessions in the fleet")
		seed      = flag.Int64("seed", 1, "fleet seed: derives every per-session profile, length, churn window, and delivery seed")
		shards    = flag.Int("shards", 4, "number of independently crash-safe shards")
		workers   = flag.Int("workers", 0, "session fan-out width per shard (0 = GOMAXPROCS)")
		scheme    = flag.String("scheme", "gab", "scheme: baseline|batching|racing|race-to-sleep|mab|gab")
		batch     = flag.Int("batch", mach.DefaultBatch, "batch depth for batching schemes")
		frames    = flag.Int("frames", 120, "full-length session frame count (churn shortens individual sessions)")
		width     = flag.Int("width", 320, "frame width (multiple of the mab size)")
		height    = flag.Int("height", 180, "frame height (multiple of the mab size)")
		workloads = flag.String("workloads", "", "comma-separated workload keys to draw sessions from (empty = all V1..V16)")
		cell      = flag.Int("cell", 8, "sessions per contention cell: overlapping sessions of a cell share a bottleneck (requires -net; 0/1 = no contention)")
		horizon   = flag.Int("horizon", 16, "join/leave churn horizon in quarter-length quanta")

		ckptDir   = flag.String("checkpoint-dir", "", "shard manifest directory: each shard checkpoints there every -checkpoint-every sessions, removed on success")
		ckptEvery = flag.Int("checkpoint-every", 16, "sessions between shard manifest writes (with -checkpoint-dir)")
		resume    = flag.Bool("resume", false, "resume from surviving manifests in -checkpoint-dir; missing = fresh shard, damaged = recomputed")
		canonical = flag.Bool("canonical", false, "print the canonical JSON aggregate instead of the report (stable across topologies; used to prove resume equivalence)")

		net       = flag.String("net", "", "network profile enabling the delivery fault model: lte|wifi|3g|flaky (empty = perfect network)")
		bandwidth = flag.Float64("bandwidth", 0, "override link bandwidth in Mbit/s (requires -net)")
		abrPolicy = flag.String("abr", "", "adaptive-bitrate policy: fixed|buffer|throughput (requires -net)")

		panicRate = flag.Float64("inject-panic-rate", 0, "fault injection: probability a session panics at start (quarantined, not fatal)")
		panicSeed = flag.Int64("inject-panic-seed", 0, "fault injection: seed for the panic draw")

		verbose = flag.Bool("v", false, "print the run's wall time after the report")
	)
	flag.Parse()

	cfg := fleet.Default()
	if *sessions < 1 || *sessions > 1<<24 {
		usage("-sessions %d: want a fleet size in [1,%d]", *sessions, 1<<24)
	}
	if *shards < 1 || *shards > 4096 {
		usage("-shards %d: want a shard count in [1,4096]", *shards)
	}
	if *workers < 0 || *workers > 256 {
		usage("-workers %d: want a worker count in [0,256]", *workers)
	}
	if *ckptEvery < 1 {
		usage("-checkpoint-every %d: want a positive session interval", *ckptEvery)
	}
	if *resume && *ckptDir == "" {
		usage("-resume needs -checkpoint-dir to name the manifest directory")
	}
	if *frames <= 0 {
		usage("-frames %d: want a positive frame count", *frames)
	}
	if *batch < 1 || *batch > 64 {
		usage("-batch %d: want a batch depth in [1,64]", *batch)
	}
	if *cell < 0 || *cell > 4096 {
		usage("-cell %d: want a cell size in [0,4096]", *cell)
	}
	if *horizon < 1 || *horizon > 1<<20 {
		usage("-horizon %d: want a churn horizon in [1,%d]", *horizon, 1<<20)
	}
	if *panicRate < 0 || *panicRate > 1 {
		usage("-inject-panic-rate %g: want a probability in [0,1]", *panicRate)
	}

	sc := cfg.Stream
	sc.Width, sc.Height, sc.NumFrames, sc.Seed = *width, *height, *frames, *seed
	if sc.MabSize > 0 && (*width <= 0 || *height <= 0 || *width%sc.MabSize != 0 || *height%sc.MabSize != 0) {
		usage("-width/-height %dx%d: want positive multiples of the %d-pixel mab size", *width, *height, sc.MabSize)
	}

	s, err := mach.SchemeByName(*scheme, *batch)
	if err != nil {
		usage("-scheme %s: %v", *scheme, err)
	}

	var profiles []string
	if *workloads != "" {
		for _, key := range strings.Split(*workloads, ",") {
			key = strings.TrimSpace(key)
			if _, err := mach.ProfileByKey(key); err != nil {
				usage("-workloads %s: unknown key %q (run `vgen -list` for the V1..V16 table)", *workloads, key)
			}
			profiles = append(profiles, key)
		}
	}

	platform := mach.DefaultConfig()
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
		platform.Delivery = d
		if *abrPolicy != "" {
			if _, err := mach.ABRPolicies(*abrPolicy); err != nil {
				usage("-abr %s: %v", *abrPolicy, err)
			}
			platform.ABR = mach.ABRConfig{Enabled: true, Policy: *abrPolicy, FixedRung: -1}
		}
	} else if *bandwidth != 0 || *abrPolicy != "" {
		usage("-bandwidth/-abr need -net to select a profile")
	}

	cfg.Sessions = *sessions
	cfg.Seed = *seed
	cfg.Shards = *shards
	cfg.Workers = *workers
	cfg.CheckpointEvery = *ckptEvery
	cfg.Scheme = s
	cfg.Stream = sc
	cfg.Platform = platform
	cfg.Profiles = profiles
	cfg.CellSize = *cell
	cfg.Horizon = *horizon

	fmt.Fprintf(os.Stderr, "machfleet: planning %d sessions over %d shards (seed %d)...\n",
		*sessions, *shards, *seed)
	sup, err := fleet.NewSupervisor(cfg)
	if err != nil {
		if errors.Is(err, fleet.ErrConfig) {
			usage("%v", err)
		}
		fatal(err)
	}

	opts := fleet.RunOptions{
		Dir:    *ckptDir,
		Resume: *resume,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *panicRate > 0 {
		opts.Hooks = fleet.Injector{PanicRate: *panicRate, PanicSeed: *panicSeed}.Hooks()
	}
	start := time.Now()
	agg, err := sup.Run(opts)
	if err != nil {
		fatal(err)
	}

	if *canonical {
		b, err := agg.CanonicalJSON()
		if err != nil {
			fatal(err)
		}
		if _, err := os.Stdout.Write(b); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Print(agg)
	if *verbose {
		fmt.Printf("  wall time: %v\n", time.Since(start).Round(time.Millisecond))
	}
}

// usage reports an invalid invocation and exits with the usage code so
// scripts can distinguish operator error from model failure.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "machfleet: "+format+"\n", args...)
	fmt.Fprintln(os.Stderr, "run `machfleet -h` for flag documentation")
	os.Exit(exitUsage)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "machfleet:", err)
	os.Exit(exitErr)
}
