package core

import (
	"crypto/md5"
	"encoding/json"
	"fmt"
	"sort"

	"mach/internal/checkpoint"
	"mach/internal/codec"
	"mach/internal/decoder"
	"mach/internal/display"
	"mach/internal/dram"
	"mach/internal/framebuf"
	"mach/internal/mach"
	"mach/internal/power"
	"mach/internal/sim"
	"mach/internal/soc"
	"mach/internal/stats"
	"mach/internal/trace"
)

// This file is the Runner's checkpoint surface (DESIGN.md
// "Checkpoint/Resume"). A snapshot is legal at any frame boundary — between
// StepFrame calls — and captures every piece of mutable cross-frame state;
// everything derived deterministically from (trace, scheme, config) is
// recomputed by NewRunner instead of serialized: the delivery schedule and
// its radio ledger, the availability merge, frame addresses, pool geometry,
// and the startup delay. Restoring a snapshot onto a Runner built from the
// same inputs therefore continues the run bit-identically.
//
// The payload is JSON: encoding/json sorts map keys and emits shortest
// round-trip float64s, so identical states produce identical bytes and
// floats restore exactly.

// maxSaneTime bounds every virtual-time field a snapshot may carry (~3
// days of picoseconds). Legit runs are seconds long; anything bigger is a
// corrupt or hostile file and would only waste cycles simulating dead air.
const maxSaneTime = sim.Time(1) << 58

// freeRecord mirrors pendingFree for serialization.
type freeRecord struct {
	At   sim.Time
	Slot int
}

// simState is the serialized form of a Runner at a frame boundary.
type simState struct {
	Frame          int
	Now            sim.Time
	TrafficFrom    sim.Time
	BatchIdx       int
	BatchEnd       int
	MaxDisplayed   int
	PredictedLow   sim.Time
	HavePrediction bool

	// ABR loop state; all omitted (and validated absent) when ABR is off,
	// keeping disabled-run snapshots byte-identical to the pre-ABR format.
	Rung         int     `json:",omitempty"`
	RungSwitches int64   `json:",omitempty"`
	RungFrames   []int64 `json:",omitempty"`

	Releases []sim.Time
	Frees    []freeRecord
	// Layouts holds the live layouts by value, sorted by DisplayIndex; the
	// Runner and the decoder IP share the rebuilt pointers exactly as the
	// live pipeline does.
	Layouts []framebuf.FrameLayout

	// Partial Result counters accumulated by the loop so far.
	Drops        int64
	Rebuffers    int64
	RebufferTime sim.Time
	BatchShrinks int64
	FrameTimes   []float64 `json:",omitempty"`

	Mem     dram.State
	Decoder decoder.State
	Mach    mach.State
	Display display.State
	Ledger  power.LedgerState
	Traffic soc.GeneratorState
	Pool    framebuf.PoolState
}

// frameSig is the per-frame slice of the run identity hashed into the
// checkpoint fingerprint: enough to tell two traces apart without hashing
// the decoded pixels (the generator is deterministic, so these fields pin
// the content).
type frameSig struct {
	DisplayIndex int
	Type         codec.FrameType
	EncodedBytes int
	TotalBits    int64
}

// Fingerprint identifies the (trace, scheme, config) triple this Runner
// simulates. Checkpoints carry it so a snapshot can never be resumed
// against a different run.
func (r *Runner) Fingerprint() checkpoint.Fingerprint {
	sigs := make([]frameSig, len(r.tr.Frames))
	for i := range r.tr.Frames {
		f := &r.tr.Frames[i]
		sigs[i] = frameSig{
			DisplayIndex: f.DisplayIndex,
			Type:         f.Type,
			EncodedBytes: f.EncodedBytes,
			TotalBits:    f.Work.TotalBits,
		}
	}
	id := struct {
		Scheme  Scheme
		Config  Config
		Profile string
		FPS     int
		Params  codec.Params
		Frames  []frameSig
	}{r.s, r.cfg, r.tr.Profile, r.tr.FPS, r.tr.Params, sigs}
	b, err := json.Marshal(id)
	if err != nil {
		// Scheme/Config/Params are plain exported value structs; this
		// cannot fail for any constructible Runner.
		panic(fmt.Sprintf("core: fingerprint marshal: %v", err))
	}
	return checkpoint.Fingerprint(md5.Sum(b))
}

// Snapshot serializes the Runner's frame-boundary state. It must not be
// called mid-StepFrame (there is no way to, short of a goroutine race) or
// after Finish.
func (r *Runner) Snapshot() ([]byte, error) {
	if r.finished {
		return nil, fmt.Errorf("core: snapshot after Finish")
	}
	st := simState{
		Frame:          r.frame,
		Now:            r.now,
		TrafficFrom:    r.trafficFrom,
		BatchIdx:       r.batchIdx,
		BatchEnd:       r.batchEnd,
		MaxDisplayed:   r.maxDisplayed,
		PredictedLow:   r.predictedLow,
		HavePrediction: r.havePrediction,
		Rung:           r.rung,
		RungSwitches:   r.rungSwitches,
		Drops:          r.res.Drops,
		Rebuffers:      r.res.Rebuffers,
		RebufferTime:   r.res.RebufferTime,
		BatchShrinks:   r.res.BatchShrinks,
		Mem:            r.mem.Snapshot(),
		Decoder:        r.ip.Snapshot(),
		Mach:           r.wb.Snapshot(),
		Display:        r.dc.Snapshot(),
		Ledger:         r.ledger.Snapshot(),
		Traffic:        r.traffic.Snapshot(),
		Pool:           r.pool.Snapshot(),
	}
	if r.rungFrames != nil {
		st.RungFrames = append([]int64(nil), r.rungFrames...)
	}
	if len(r.releases) > 0 {
		st.Releases = append([]sim.Time(nil), r.releases...)
	}
	if len(r.frees) > 0 {
		st.Frees = make([]freeRecord, len(r.frees))
		for i, f := range r.frees {
			st.Frees[i] = freeRecord{At: f.at, Slot: f.slot}
		}
	}
	if len(r.live) > 0 {
		st.Layouts = make([]framebuf.FrameLayout, len(r.live))
		for i, l := range r.live {
			st.Layouts[i] = *l
		}
		sort.Slice(st.Layouts, func(a, b int) bool {
			return st.Layouts[a].DisplayIndex < st.Layouts[b].DisplayIndex
		})
	}
	if r.res.FrameTimes != nil {
		st.FrameTimes = r.res.FrameTimes.Values()
	}
	return json.Marshal(st)
}

// Restore overwrites the Runner's state from a Snapshot payload. The Runner
// must be freshly built from the same (trace, scheme, config) the snapshot
// came from — SaveCheckpoint/LoadCheckpoint enforce that with the
// fingerprint; Restore itself enforces every structural invariant the step
// loop relies on, because the payload may come from an untrusted file. On
// error the Runner is in an undefined state and must be discarded.
func (r *Runner) Restore(payload []byte) error {
	var st simState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("core: checkpoint payload: %w", err)
	}
	nFrames := len(r.tr.Frames)
	numMabs := r.tr.Params.MabsPerFrame()

	// --- Structural validation (pure checks first) -----------------------
	if st.Frame < 0 || st.Frame > st.BatchEnd || st.BatchEnd > nFrames {
		return fmt.Errorf("core: checkpoint cursor frame=%d batchEnd=%d outside trace of %d frames",
			st.Frame, st.BatchEnd, nFrames)
	}
	if st.BatchIdx < 0 {
		return fmt.Errorf("core: negative batch index %d", st.BatchIdx)
	}
	if st.Now < 0 || st.Now > maxSaneTime {
		return fmt.Errorf("core: checkpoint clock %d out of range", int64(st.Now))
	}
	if st.TrafficFrom < 0 || st.TrafficFrom > st.Now {
		return fmt.Errorf("core: traffic cursor %d outside [0, now]", int64(st.TrafficFrom))
	}
	if st.PredictedLow < 0 || st.PredictedLow > maxSaneTime {
		return fmt.Errorf("core: predicted decode time %d out of range", int64(st.PredictedLow))
	}
	if st.MaxDisplayed < -1 || st.MaxDisplayed >= nFrames {
		return fmt.Errorf("core: max displayed index %d outside [-1, %d)", st.MaxDisplayed, nFrames)
	}
	if st.Drops < 0 || st.Rebuffers < 0 || st.RebufferTime < 0 || st.BatchShrinks < 0 {
		return fmt.Errorf("core: negative result counter in checkpoint")
	}
	// ABR state must be present exactly when the config runs the
	// controller, and the rung accounting must reconcile with the cursor:
	// every decoded frame was decoded at some rung.
	if r.rungs != nil {
		if st.Rung < 0 || st.Rung >= len(r.ladder) {
			return fmt.Errorf("core: checkpoint rung %d outside ladder of %d rungs", st.Rung, len(r.ladder))
		}
		if st.RungSwitches < 0 || st.RungSwitches > int64(st.Frame) {
			return fmt.Errorf("core: %d rung switches over %d decoded frames", st.RungSwitches, st.Frame)
		}
		if len(st.RungFrames) != len(r.ladder) {
			return fmt.Errorf("core: %d rung-frame counters for a ladder of %d rungs",
				len(st.RungFrames), len(r.ladder))
		}
		var rf int64
		for i, n := range st.RungFrames {
			if n < 0 {
				return fmt.Errorf("core: negative frame count at rung %d", i)
			}
			rf += n
		}
		if rf != int64(st.Frame) {
			return fmt.Errorf("core: rung-frame counters sum to %d, cursor says %d frames decoded", rf, st.Frame)
		}
	} else if st.Rung != 0 || st.RungSwitches != 0 || st.RungFrames != nil {
		return fmt.Errorf("core: checkpoint carries ABR state, config does not run the controller")
	}
	// The step loop appends exactly one release per frame and indexes
	// releases[frame-poolCap]; both depend on this length invariant.
	if len(st.Releases) != st.Frame {
		return fmt.Errorf("core: %d release times for %d decoded frames", len(st.Releases), st.Frame)
	}
	for i, t := range st.Releases {
		if t < 0 || t > maxSaneTime {
			return fmt.Errorf("core: release time %d out of range", int64(t))
		}
		if i > 0 && t < st.Releases[i-1] {
			return fmt.Errorf("core: release times not sorted at %d", i)
		}
	}
	if r.cfg.CollectFrameSamples {
		if len(st.FrameTimes) != st.Frame {
			return fmt.Errorf("core: %d frame samples for %d decoded frames", len(st.FrameTimes), st.Frame)
		}
	} else if st.FrameTimes != nil {
		return fmt.Errorf("core: checkpoint carries frame samples, config does not collect them")
	}
	if len(st.Layouts) > nFrames {
		return fmt.Errorf("core: %d live layouts exceed trace length %d", len(st.Layouts), nFrames)
	}
	layouts := make(map[int]*framebuf.FrameLayout, len(st.Layouts))
	for i := range st.Layouts {
		l := &st.Layouts[i]
		if l.DisplayIndex < 0 || l.DisplayIndex >= nFrames {
			return fmt.Errorf("core: layout display index %d outside [0, %d)", l.DisplayIndex, nFrames)
		}
		if _, dup := layouts[l.DisplayIndex]; dup {
			return fmt.Errorf("core: duplicate layout for display index %d", l.DisplayIndex)
		}
		// The decoder's reference reads index Records by mab ordinal.
		if len(l.Records) != numMabs {
			return fmt.Errorf("core: layout %d has %d records, geometry wants %d",
				l.DisplayIndex, len(l.Records), numMabs)
		}
		layouts[l.DisplayIndex] = l
	}
	// The live list is in decode order, as the uninterrupted run holds it,
	// so every layout must belong to a decoded frame.
	live := make([]*framebuf.FrameLayout, 0, nFrames)
	for i := 0; i < st.Frame; i++ {
		if l := layouts[r.tr.Frames[i].DisplayIndex]; l != nil {
			live = append(live, l)
		}
	}
	if len(live) != len(st.Layouts) {
		return fmt.Errorf("core: %d of %d layouts belong to no decoded frame", len(st.Layouts)-len(live), len(st.Layouts))
	}

	// --- Component restores (each validates its own shape) ---------------
	if err := r.pool.Restore(st.Pool); err != nil {
		return err
	}
	// Pending frees release pool slots later; a slot not currently held
	// would make Pool.Release panic, so cross-check against the pool.
	inUse := make(map[int]bool, len(st.Pool.InUse))
	for _, s := range st.Pool.InUse {
		inUse[s] = true
	}
	frees := make([]pendingFree, len(st.Frees))
	for i, f := range st.Frees {
		if f.At < 0 || f.At > maxSaneTime {
			return fmt.Errorf("core: pending free time %d out of range", int64(f.At))
		}
		if !inUse[f.Slot] {
			return fmt.Errorf("core: pending free of slot %d not held by the pool", f.Slot)
		}
		inUse[f.Slot] = false // also rejects duplicates
		frees[i] = pendingFree{at: f.At, slot: f.Slot}
	}
	if err := r.mem.Restore(st.Mem); err != nil {
		return err
	}
	if err := r.ip.Restore(st.Decoder, live); err != nil {
		return err
	}
	if err := r.wb.Restore(st.Mach); err != nil {
		return err
	}
	// The MACH quantization depth is slaved to the applied rung; a snapshot
	// where the two disagree is corrupt, not merely stale.
	wantShift := 0
	if r.rungs != nil {
		wantShift = r.ladder[st.Rung].QuantShift
	}
	if got := r.wb.QuantShift(); got != wantShift {
		return fmt.Errorf("core: MACH quant shift %d does not match the applied rung's %d", got, wantShift)
	}
	if err := r.dc.Restore(st.Display); err != nil {
		return err
	}
	r.ledger.Restore(st.Ledger)
	r.traffic.Restore(st.Traffic)

	// --- Apply loop state -------------------------------------------------
	r.frame = st.Frame
	r.now = st.Now
	r.trafficFrom = st.TrafficFrom
	r.batchIdx = st.BatchIdx
	r.batchEnd = st.BatchEnd
	r.maxDisplayed = st.MaxDisplayed
	r.predictedLow = st.PredictedLow
	r.havePrediction = st.HavePrediction
	if r.rungs != nil {
		r.rung = st.Rung
		r.rungSwitches = st.RungSwitches
		r.rungFrames = append([]int64(nil), st.RungFrames...)
	}
	r.releases = append([]sim.Time(nil), st.Releases...)
	r.frees = frees
	r.live = live
	r.res.Drops = st.Drops
	r.res.Rebuffers = st.Rebuffers
	r.res.RebufferTime = st.RebufferTime
	r.res.BatchShrinks = st.BatchShrinks
	if r.cfg.CollectFrameSamples {
		r.res.FrameTimes = stats.RestoreSample(st.FrameTimes)
	}
	return nil
}

// SaveCheckpoint atomically writes the Runner's current state to path.
func (r *Runner) SaveCheckpoint(path string) error {
	payload, err := r.Snapshot()
	if err != nil {
		return err
	}
	return checkpoint.Save(path, r.Fingerprint(), payload)
}

// LoadCheckpoint builds a Runner from the same inputs as NewRunner and
// restores it from the checkpoint at path. The file's fingerprint must
// match the (trace, scheme, config) triple; a missing file surfaces as
// fs.ErrNotExist, anything malformed wraps checkpoint.ErrCorrupt.
func LoadCheckpoint(path string, tr *trace.Trace, s Scheme, cfg Config) (*Runner, error) {
	r, err := NewRunner(tr, s, cfg)
	if err != nil {
		return nil, err
	}
	payload, err := checkpoint.Load(path, r.Fingerprint())
	if err != nil {
		return nil, err
	}
	if err := r.Restore(payload); err != nil {
		return nil, fmt.Errorf("%s: %w (%v)", path, checkpoint.ErrCorrupt, err)
	}
	return r, nil
}
