package core

import (
	"crypto/md5"
	"encoding/json"
	"fmt"

	"mach/internal/checkpoint"
	"mach/internal/codec"
	"mach/internal/trace"
)

// This file is the Runner's checkpoint surface (DESIGN.md
// "Checkpoint/Resume"). A run is a pure function of (trace, scheme,
// config), and the checkpoint fingerprint pins that triple, so the only
// state a checkpoint needs is the frame cursor: Restore replays the run up
// to it, and the restored Runner is the uninterrupted one by construction.

// cursor is the checkpoint payload: the index of the next frame to decode.
// A payload that carries more fields (older version-2 checkpoints carried
// every component's state) restores from its Frame alone.
type cursor struct {
	Frame int
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

// Snapshot serializes the Runner's frame cursor. It must not be called
// mid-StepFrame (there is no way to, short of a goroutine race) or after
// Finish.
func (r *Runner) Snapshot() ([]byte, error) {
	if r.finished {
		return nil, fmt.Errorf("core: snapshot after Finish")
	}
	return json.Marshal(cursor{Frame: r.frame})
}

// Restore replays a freshly built Runner to the frame cursor of a Snapshot
// payload. The Runner must be built from the same (trace, scheme, config)
// the snapshot came from; SaveCheckpoint/LoadCheckpoint enforce that with
// the fingerprint. The payload may come from an untrusted file, so a cursor
// outside [0, frames] is an error, and so is a Runner that has already
// stepped: replaying on top of its state would be silently wrong.
func (r *Runner) Restore(payload []byte) error {
	var c cursor
	if err := json.Unmarshal(payload, &c); err != nil {
		return fmt.Errorf("core: checkpoint payload: %w", err)
	}
	if c.Frame < 0 || c.Frame > len(r.tr.Frames) {
		return fmt.Errorf("core: checkpoint cursor %d outside trace of %d frames", c.Frame, len(r.tr.Frames))
	}
	if r.frame != 0 {
		return fmt.Errorf("core: restore into a runner already at frame %d", r.frame)
	}
	for r.frame < c.Frame {
		r.StepFrame()
	}
	return nil
}

// SaveCheckpoint atomically writes the Runner's frame cursor to path.
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
