// Command benchmark is the repository benchmark. It runs one named workload
// at one seed, as a closed loop with a single caller, for a fixed window,
// checks every op's simulated output, and prints its metrics as one JSON
// object on the last line of standard output: the end-to-end metrics, or
// with -trace 1 the per-layer metrics of a separate traced run. README.md
// describes the workloads and metrics; run.sh builds and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// buildDir holds build output, span files and per-run scratch, relative to
// the directory the benchmark runs in.
const buildDir = ".bench_build"

type metricSpec struct{ name, unit string }

// endToEnd and perLayer are the metrics a run prints, in BENCHMARK.json's
// order and units.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"frames_per_s", "frames/s"},
	{"sessions_per_s", "sessions/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"peak_rss_mb", "MiB"},
	{"op_pass_ratio", "ratio"},
	{"sim_energy_mj_per_frame", "mJ"},
	{"sim_on_time_ratio", "ratio"},
}

var perLayer = []metricSpec{
	{"video.generate_ms", "ms"},
	{"codec.encode_ms", "ms"},
	{"codec.decode_ms", "ms"},
	{"core.new_runner_us", "us"},
	{"core.step_us_p50", "us"},
	{"core.step_us_p90", "us"},
	{"core.finish_us", "us"},
	{"core.host_ns_per_mab", "ns/mab"},
	{"mach.prehash_ms", "ms"},
	{"mach.process_us", "us"},
	{"mach.classify_us", "us"},
	{"decoder.self_us", "us"},
	{"display.us", "us"},
	{"mach.process_share", "ratio"},
	{"decoder.self_share", "ratio"},
	{"core.snapshot_ms", "ms"},
	{"core.fingerprint_us", "us"},
	{"core.restore_ms", "ms"},
	{"checkpoint.save_ms", "ms"},
	{"checkpoint.load_ms", "ms"},
	{"checkpoint.bytes", "bytes"},
	{"delivery.plan_us", "us"},
	{"par.cpu_util", "ratio"},
	{"fleet.quarantined", "count"},
	{"fleet.restarts", "count"},
	{"mach.match_rate", "ratio"},
	{"mach.savings", "ratio"},
	{"dram.accesses", "count"},
	{"dram.row_hit_rate", "ratio"},
	{"display.dc_hit_rate", "ratio"},
	{"decoder.ref_hit_rate", "ratio"},
	{"decoder.stall_ms", "sim_ms"},
	{"power.s3_residency", "ratio"},
	{"power.transitions", "count"},
	{"delivery.rebuffers", "count"},
	{"delivery.startup_ms_p50", "sim_ms"},
	{"layers.closure", "ratio"},
	{"bench.trace_overhead", "ratio"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is printed before the result: the environment and the samples
// behind the metrics.
type report struct {
	Env      envStamp  `json:"env"`
	SetupS   []float64 `json:"setup_s_samples"`
	OpMs     opSummary `json:"op_ms"`
	Failures []string  `json:"failures,omitempty"`
	Spans    string    `json:"spans,omitempty"`
}

// opSummary states how many op latencies stand behind the percentiles and
// the highest percentile with at least ten samples beyond it.
type opSummary struct {
	Samples  int     `json:"samples"`
	P50      float64 `json:"p50"`
	P90      float64 `json:"p90"`
	Beyond90 int     `json:"samples_beyond_p90"`
	TailPct  float64 `json:"tail_pct,omitempty"`
	Tail     float64 `json:"tail,omitempty"`
}

// opTiming is one op of the timed window: one session.
type opTiming struct {
	ms     float64
	frames int
	traced bool
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) (err error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloads, ", "))
	seed := fs.Int64("seed", defaultSeed, "input seed: the stream seed, and the fleet seed of a traced run")
	seconds := fs.Float64("seconds", 30, "length of the timed window in seconds")
	traceFlag := fs.Int("trace", 0, "1 makes a traced run that prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("usage: -workload <%s> -seed <n> -seconds <s> -trace <0|1>", strings.Join(workloads, "|"))
	}
	p, err := loadPins()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return err
	}
	defer func() {
		if rerr := os.RemoveAll(tmp); rerr != nil && err == nil {
			err = rerr
		}
	}()
	b, err := newBench(*name, *seed, tmp)
	if err != nil {
		return err
	}
	traced := *traceFlag == 1
	stamp := newStamp(b, *seconds, traced)
	window := time.Duration(*seconds * float64(time.Second))

	var res result
	var rep report
	if traced {
		res, rep, err = runTraced(b, p, window)
	} else {
		res, rep, err = runUntraced(b, p, window)
	}
	if err != nil {
		return err
	}
	stamp.LoadEnd, stamp.HostLoopEnd = loadAvg(), hostLoopMs()
	rep.Env = stamp
	for _, f := range rep.Failures {
		fmt.Fprintln(os.Stderr, "benchmark: op failed:", f)
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]report{"report": rep}); err != nil {
		return err
	}
	return enc.Encode(res)
}

// runUntraced sets the workload up setupReps times, warms up, and times
// the window with tracing off: the end-to-end metrics.
func runUntraced(b *bench, p pins, window time.Duration) (result, report, error) {
	var rep report
	for i := 0; i < setupReps; i++ {
		// Start each setup from a collected heap so the reps time the same
		// work and the peak resident set is one setup's, not all of them.
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		if err := b.setup(nil); err != nil {
			return result{}, rep, fmt.Errorf("setup: %w", err)
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
	}
	attempted, failures := b.warmUp(p)
	runtime.GC() // start the window without the setups' garbage
	ops, wf, elapsed := b.window(nil, window, attempted)
	failures = append(failures, wf...)
	attempted += len(ops)
	_, peak := usage()

	var frames float64
	lat := make([]float64, len(ops))
	for i, o := range ops {
		frames += float64(o.frames)
		lat[i] = o.ms
	}
	rep.OpMs = summarize(lat)
	mj, onTime := b.simMetrics()
	values := map[string]float64{
		"setup_s":                 median(rep.SetupS),
		"frames_per_s":            frames / elapsed.Seconds(),
		"sessions_per_s":          float64(len(ops)) / elapsed.Seconds(),
		"op_ms_p50":               rep.OpMs.P50,
		"op_ms_p90":               rep.OpMs.P90,
		"peak_rss_mb":             peak,
		"op_pass_ratio":           float64(attempted-len(failures)) / float64(attempted),
		"sim_energy_mj_per_frame": mj,
		"sim_on_time_ratio":       onTime,
	}
	return finish(values, endToEnd, attempted, failures, &rep), rep, nil
}

// runTraced sets up once with every step timed, then alternates traced
// and untraced ops through the window and probes the other layers: the
// per-layer metrics. Spans go to a file under buildDir when it ends.
func runTraced(b *bench, p pins, window time.Duration) (result, report, error) {
	var rep report
	t := newTracer()
	start := time.Now()
	if err := b.setup(t); err != nil {
		return result{}, rep, fmt.Errorf("setup: %w", err)
	}
	rep.SetupS = []float64{time.Since(start).Seconds()}
	attempted, failures := b.warmUp(p)
	ops, wf, _ := b.window(t, window, attempted)
	failures = append(failures, wf...)
	attempted += len(ops)
	pa, pf := b.probe(t, p, attempted)
	attempted += pa
	failures = append(failures, pf...)

	lat := make([]float64, len(ops))
	for i, o := range ops {
		lat[i] = o.ms
	}
	rep.OpMs = summarize(lat)
	rep.Spans = filepath.Join(buildDir, "spans-"+b.name+"-seed"+strconv.FormatInt(b.seed, 10)+".jsonl")
	if err := t.write(rep.Spans); err != nil {
		return result{}, rep, err
	}
	return finish(b.layerMetrics(t, ops), perLayer, attempted, failures, &rep), rep, nil
}

// window runs ops back to back until d has passed, numbering them from
// firstOp. With a tracer every other op is traced, so that traced and
// untraced ops see the same drift.
func (b *bench) window(t *tracer, d time.Duration, firstOp int) (ops []opTiming, failures []error, elapsed time.Duration) {
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		var tt *tracer
		if t != nil && i%2 == 1 {
			tt = t
			t.setOp(firstOp + i)
		}
		t0 := time.Now()
		frames, err := b.op(tt, i)
		dur := time.Since(t0)
		tt.setOp(-1)
		if err != nil {
			failures = append(failures, err)
		}
		ops = append(ops, opTiming{ms: msOf(dur), frames: frames, traced: tt != nil})
	}
	return ops, failures, time.Since(start)
}

// simMetrics is the simulated energy per frame in mJ and the share of
// frames shown on time, over one reference session per trace. Both repeat
// exactly at a fixed seed.
func (b *bench) simMetrics() (mjPerFrame, onTime float64) {
	var joules, frames, drops float64
	for _, r := range b.refRes {
		if r != nil {
			joules += r.TotalEnergy()
			frames += float64(r.Frames)
			drops += float64(r.Drops)
		}
	}
	return ratio(joules*1e3, frames), 1 - ratio(drops, frames)
}

func summarize(lat []float64) opSummary {
	s := opSummary{Samples: len(lat), P50: percentile(lat, 50), P90: percentile(lat, 90)}
	if len(lat) > 0 {
		s.Beyond90 = beyond(len(lat), 90)
	}
	if p, ok := tailPercentile(len(lat)); ok {
		s.TailPct, s.Tail = p, percentile(lat, p)
	}
	return s
}

// finish assembles the result line from the named metrics.
func finish(values map[string]float64, names []metricSpec, attempted int, failures []error, rep *report) result {
	res := result{Attempted: attempted, Failed: len(failures), Metrics: map[string]metric{}}
	res.Correct = res.Failed == 0
	for _, n := range names {
		res.Metrics[n.name] = metric{Value: values[n.name], Unit: n.unit}
	}
	for _, f := range failures {
		rep.Failures = append(rep.Failures, f.Error())
	}
	return res
}
