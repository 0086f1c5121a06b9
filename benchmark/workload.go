package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mach/internal/abr"
	"mach/internal/checkpoint"
	"mach/internal/codec"
	"mach/internal/core"
	"mach/internal/delivery"
	"mach/internal/fleet"
	"mach/internal/trace"
	"mach/internal/video"
)

// Workload sizes. Every workload replays 320x180 streams with 4x4 mabs
// under core.DefaultConfig(); README.md says why each workload exists.
const (
	sessionFrames = 48 // frames per session
	resumeEvery   = 16 // frames between crash-resume cycles in the probe
	fleetSessions = 32 // the fleet probe of a traced run
	fleetFrames   = 32 // a full-length fleet session; churn cuts some to 1/2 or 3/4
	fleetShards   = 2
	fleetCommit   = 8 // sessions between shard manifest writes
	fleetCell     = 8 // sessions per shared-bottleneck cell
	// setupReps is how many times an untraced run sets up; setup_s is the
	// median.
	setupReps = 3
)

// profiles are the traces every workload cycles through: MACH match rates
// 0.39, 0.47 and 0.59, and V7 has B-frames.
var profiles = []string{"V2", "V7", "V13"}

var workloads = []string{"recipe", "race-only"}

// bench is one workload at one seed: its configuration, its built inputs,
// and the digests its ops must reproduce.
type bench struct {
	name   string
	seed   int64
	scheme core.Scheme
	cfg    core.Config
	fcfg   fleet.Config // the traced run's fleet probe
	tmp    string       // checkpoints and manifests; removed when the run ends

	traces []*trace.Trace    // built by setup
	sup    *fleet.Supervisor // built by buildFleet

	// Fixed by warmUp: the digest each trace's ops must reproduce, and the
	// reference outcomes the sim metrics read. refAgg is the fleet probe's.
	refs   []string
	refRes []*core.Result
	refAgg *fleet.Aggregate
}

func newBench(name string, seed int64, tmp string) (*bench, error) {
	b := &bench{name: name, seed: seed, tmp: tmp, cfg: core.DefaultConfig()}
	switch name {
	case "recipe":
		b.scheme = core.GAB(core.DefaultBatch)
	case "race-only":
		b.scheme = core.RaceToSleep(core.DefaultBatch)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloads, ", "))
	}
	fc, err := fleetConfig(seed)
	if err != nil {
		return nil, err
	}
	b.fcfg = fc
	return b, nil
}

func streamConfig(seed int64, frames int) video.StreamConfig {
	sc := video.DefaultStreamConfig()
	sc.NumFrames, sc.Seed = frames, seed
	return sc
}

// fleetConfig is 32 churning GAB(8) sessions over the three profiles,
// delivered over LTE with buffer-policy ABR and 8-session contention cells.
func fleetConfig(seed int64) (fleet.Config, error) {
	c := fleet.Default()
	c.Sessions, c.Seed, c.Shards = fleetSessions, seed, fleetShards
	c.Workers = min(2, runtime.NumCPU())
	c.CheckpointEvery = fleetCommit
	c.Scheme = core.GAB(core.DefaultBatch)
	c.Stream = streamConfig(seed, fleetFrames)
	c.Profiles = profiles
	c.CellSize = fleetCell
	d, err := delivery.ProfileByName("lte")
	if err != nil {
		return c, err
	}
	c.Platform.Delivery = d
	c.Platform.ABR = abr.Config{Enabled: true, Policy: "buffer", FixedRung: -1}
	return c, nil
}

// setup builds the workload's inputs, one trace per profile. A traced
// setup runs the steps core.BuildTrace composes, one span each.
func (b *bench) setup(t *tracer) error {
	b.traces = nil
	for _, key := range profiles {
		tr, err := buildTrace(t, key, streamConfig(b.seed, sessionFrames))
		if err != nil {
			return err
		}
		b.traces = append(b.traces, tr)
	}
	return nil
}

// buildFleet builds the fleet probe's supervisor, which synthesizes the
// traces its sessions replay.
func (b *bench) buildFleet(t *tracer) error {
	id := t.begin("fleet.new_supervisor")
	sup, err := fleet.NewSupervisor(b.fcfg)
	t.end(id)
	b.sup = sup
	return err
}

// buildTrace is core.BuildTrace, or with a tracer the same steps timed one
// by one: scene generation, encoding, and the functional decode.
func buildTrace(t *tracer, key string, sc video.StreamConfig) (*trace.Trace, error) {
	if t == nil {
		return core.BuildTrace(key, sc)
	}
	outer := t.begin("setup.trace")
	defer t.end(outer)
	prof, err := video.ProfileByKey(key)
	if err != nil {
		return nil, err
	}
	gen, err := video.NewGenerator(prof, sc.Width, sc.Height, sc.Seed)
	if err != nil {
		return nil, err
	}
	params := codec.DefaultParams(sc.Width, sc.Height)
	if sc.MabSize != 0 {
		params.MabSize = sc.MabSize
	}
	if sc.Quant != 0 {
		params.Quant = sc.Quant
	}
	params.GOPLength, params.BFrames = prof.GOPLength, prof.BFrames
	enc, err := codec.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	encoded := make([]*codec.EncodedFrame, 0, sc.NumFrames)
	for i := 0; i < sc.NumFrames; i++ {
		id := t.begin("video.generate")
		fr := gen.Frame()
		t.end(id)
		id = t.begin("codec.encode")
		efs, err := enc.Push(fr)
		t.end(id)
		if err != nil {
			return nil, err
		}
		encoded = append(encoded, efs...)
	}
	id := t.begin("codec.encode")
	efs, err := enc.Flush()
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("codec.decode")
	tr, err := trace.Build(prof.Key, prof.FPS, params, append(encoded, efs...))
	t.end(id)
	return tr, err
}

// session replays tr start to finish. With resume set it saves a
// checkpoint every resumeEvery frames and continues from a runner loaded
// back from it, as machsim -checkpoint does after a crash.
func (b *bench) session(t *tracer, tr *trace.Trace, resume bool) (*core.Result, error) {
	id := t.begin("core.new_runner")
	r, err := core.NewRunner(tr, b.scheme, b.cfg)
	t.end(id)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(b.tmp, "session.mckp")
	var prehash time.Duration
	for !r.Done() {
		id := t.begin("core.step")
		r.StepFrame()
		t.end(id)
		if resume && r.Frame()%resumeEvery == 0 && !r.Done() {
			prehash += r.PrehashWall()
			if err := saveCheckpoint(t, r, path); err != nil {
				return nil, err
			}
			if r, err = loadCheckpoint(t, path, tr, b.scheme, b.cfg); err != nil {
				return nil, err
			}
		}
	}
	t.note("mach.prehash_ms", msOf(prehash+r.PrehashWall()))
	id = t.begin("core.finish")
	res, err := r.Finish()
	t.end(id)
	return res, err
}

// saveCheckpoint is Runner.SaveCheckpoint, or with a tracer the steps it
// composes, timed one by one.
func saveCheckpoint(t *tracer, r *core.Runner, path string) error {
	if t == nil {
		return r.SaveCheckpoint(path)
	}
	id := t.begin("core.snapshot")
	payload, err := r.Snapshot()
	t.end(id)
	if err != nil {
		return err
	}
	id = t.begin("core.fingerprint")
	fp := r.Fingerprint()
	t.end(id)
	id = t.begin("checkpoint.save")
	err = checkpoint.Save(path, fp, payload)
	t.end(id)
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	t.note("checkpoint.bytes", float64(fi.Size()))
	return nil
}

// loadCheckpoint is core.LoadCheckpoint, or with a tracer the steps it
// composes, timed one by one.
func loadCheckpoint(t *tracer, path string, tr *trace.Trace, s core.Scheme, cfg core.Config) (*core.Runner, error) {
	if t == nil {
		return core.LoadCheckpoint(path, tr, s, cfg)
	}
	id := t.begin("core.new_runner")
	r, err := core.NewRunner(tr, s, cfg)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("core.fingerprint")
	fp := r.Fingerprint()
	t.end(id)
	id = t.begin("checkpoint.load")
	payload, err := checkpoint.Load(path, fp)
	t.end(id)
	if err != nil {
		return nil, err
	}
	id = t.begin("core.restore")
	err = r.Restore(payload)
	t.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: %w (%v)", path, checkpoint.ErrCorrupt, err)
	}
	return r, nil
}

// fleetRun is one supervised fleet run writing its shard manifests into a
// fresh directory, which it removes afterwards. With a tracer it also
// notes how busy the workers kept the CPUs.
func (b *bench) fleetRun(t *tracer) (*fleet.Aggregate, error) {
	dir, err := os.MkdirTemp(b.tmp, "fleet-")
	if err != nil {
		return nil, err
	}
	cpu0, _ := usage()
	id := t.begin("fleet.run")
	agg, err := b.sup.Run(fleet.RunOptions{Dir: dir})
	t.end(id)
	if t != nil {
		cpu1, _ := usage()
		wall := t.spans[id].dur()
		t.note("par.cpu_util", ratio(float64(cpu1-cpu0), float64(wall)*float64(b.fcfg.Workers)))
	}
	if rerr := os.RemoveAll(dir); rerr != nil && err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	t.note("fleet.quarantined", float64(agg.Quarantined))
	t.note("fleet.restarts", float64(agg.Restarts))
	return agg, nil
}

// op runs op number i: one session of the i-th trace in turn. It returns
// the frames completed, or why the op failed.
func (b *bench) op(t *tracer, i int) (frames int, err error) {
	k := i % len(b.traces)
	tr := b.traces[k]
	res, err := b.session(t, tr, false)
	if err == nil {
		err = checkSession(tr, res, b.refs[k])
	}
	if err != nil {
		return 0, err
	}
	return len(tr.Frames), nil
}

// warmUp runs one untimed session per trace and fixes the digest every
// later op of that trace must reproduce: the pinned one at the default
// seed, else the warm-up's own. It returns the ops it ran and their
// failures.
func (b *bench) warmUp(p pins) (attempted int, failures []error) {
	b.refs = make([]string, len(b.traces))
	b.refRes = make([]*core.Result, len(b.traces))
	for k, tr := range b.traces {
		ref := ""
		if b.seed == defaultSeed {
			ref = p.Sessions[b.name][tr.Profile]
		}
		res, err := b.session(nil, tr, false)
		if err == nil {
			err = checkSession(tr, res, ref)
		}
		if err == nil && ref == "" {
			ref, err = resultDigest(res)
		}
		if err != nil {
			failures = append(failures, fmt.Errorf("warm-up: %w", err))
		}
		b.refs[k], b.refRes[k] = ref, res
	}
	return len(b.traces), failures
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
