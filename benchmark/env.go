package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// envStamp records what a run's numbers depend on besides the code.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	LoadStart  string `json:"loadavg_start"`
	LoadEnd    string `json:"loadavg_end"`
	// HostLoop is hostLoopMs at start and end of the run.
	HostLoopStart float64 `json:"host_loop_ms_start"`
	HostLoopEnd   float64 `json:"host_loop_ms_end"`
	Workload      string  `json:"workload"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Traced        bool    `json:"traced"`
	Sizes         sizes   `json:"sizes"`
}

// sizes describes the work one op does and what setup builds.
type sizes struct {
	Stream     string   `json:"stream"`
	Scheme     string   `json:"scheme"`
	Traces     []string `json:"traces"`
	OpSessions int      `json:"sessions_per_op"`
	SetupReps  int      `json:"setup_reps"`
	// Probes is what a traced run does after its window.
	Probes string `json:"probes,omitempty"`
}

func newStamp(b *bench, seconds float64, traced bool) envStamp {
	sc := streamConfig(b.seed, sessionFrames)
	z := sizes{
		Stream:     fmt.Sprintf("%dx%d mab %d", sc.Width, sc.Height, sc.MabSize),
		Scheme:     b.scheme.Name,
		OpSessions: 1,
		SetupReps:  setupReps,
	}
	for _, p := range profiles {
		z.Traces = append(z.Traces, traceKey(p, sessionFrames))
	}
	if traced {
		z.SetupReps = 1
		z.Probes = fmt.Sprintf("per trace a session resumed every %d frames, a leaf replay and a delivery plan; "+
			"a fleet of %d %s sessions of up to %d frames, %d shards, %d workers",
			resumeEvery, b.fcfg.Sessions, b.fcfg.Scheme.Name, b.fcfg.Stream.NumFrames, b.fcfg.Shards, b.fcfg.Workers)
	}
	return envStamp{
		GoVersion:     runtime.Version(),
		GOOS:          runtime.GOOS,
		GOARCH:        runtime.GOARCH,
		NumCPU:        runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		LoadStart:     loadAvg(),
		HostLoopStart: hostLoopMs(),
		Workload:      b.name,
		Seed:          b.seed,
		Seconds:       seconds,
		Traced:        traced,
		Sizes:         z,
	}
}

// cpuModel reads the first model name the kernel reports.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadAvg returns the 1, 5 and 15 minute load averages.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	f := strings.Fields(string(b))
	if len(f) < 3 {
		return "unknown"
	}
	return strings.Join(f[:3], " ")
}

// hostLoopMs is the median time of a fixed integer loop over a 256 KiB
// table: the same work on every host and in every run. On a shared host
// its time drifts with the program's, by tens of percent within minutes,
// so a report can tell a slower host from slower code.
func hostLoopMs() float64 {
	const size = 1 << 16
	table := make([]uint32, size)
	for i := range table {
		table[i] = uint32(i) * 2654435761
	}
	x := uint32(1)
	times := make([]float64, 15)
	for r := range times {
		start := time.Now()
		for i := 0; i < 100000; i++ {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			x += table[x&(size-1)]
		}
		times[r] = msOf(time.Since(start))
	}
	hostLoopSink = x
	return median(times)
}

// hostLoopSink keeps the loop's result live.
var hostLoopSink uint32

// usage is the process's CPU time so far and its peak resident set in MiB.
func usage() (cpu time.Duration, peakMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return cpu, float64(ru.Maxrss) / 1024 // Linux reports KiB
}
