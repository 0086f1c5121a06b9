// Package trace builds decode traces: the per-frame decoded pixels plus the
// per-mab work records the timing models replay. This mirrors the paper's
// methodology (FFmpeg + pintool traces replayed through the GemDroid
// platform): each workload's decode is captured once, and each scheme under
// test replays the same trace through the timing and energy models, so
// scheme comparisons are content-identical by construction. The capture
// needs no decoder: the encoder's closed loop already holds every frame's
// decoded pixels and decode work, and Build assembles the trace from them.
package trace

import (
	"fmt"
	"sync"

	"mach/internal/codec"
)

// Frame is one decode-order entry of a trace.
type Frame struct {
	Type         codec.FrameType
	DisplayIndex int
	EncodedBytes int
	Decoded      *codec.Frame
	Work         *codec.FrameWork
}

// Trace is a fully decoded workload. Its frames are read-only once built;
// sessions replaying it concurrently share only its digest tables, which
// are safe for concurrent use. A Trace must not be copied.
type Trace struct {
	Profile string // workload key, e.g. "V7"
	FPS     int
	Params  codec.Params
	Frames  []Frame // decode order

	digestMu sync.Mutex
	digests  map[Variant]*DigestTable // one per variant reached; guarded by digestMu
}

// Build assembles a trace from a decode-order encoded stream, taking each
// frame's pixels and work from the encoder's reconstruction and work record.
// The trace shares them, so they must not be modified afterwards. A frame
// without them is an error.
func Build(profileKey string, fps int, params codec.Params, encoded []*codec.EncodedFrame) (*Trace, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	tr := &Trace{Profile: profileKey, FPS: fps, Params: params, Frames: make([]Frame, 0, len(encoded))}
	for _, ef := range encoded {
		if ef.Recon == nil || ef.Work == nil {
			return nil, fmt.Errorf("trace: frame %d carries no reconstruction or work", ef.DisplayIndex)
		}
		tr.Frames = append(tr.Frames, Frame{
			Type:         ef.Type,
			DisplayIndex: ef.DisplayIndex,
			EncodedBytes: ef.SizeBytes(),
			Decoded:      ef.Recon,
			Work:         ef.Work,
		})
	}
	return tr, nil
}

// NumFrames returns the frame count.
func (t *Trace) NumFrames() int { return len(t.Frames) }

// FramePeriod returns the display interval implied by FPS, in seconds.
func (t *Trace) FramePeriod() float64 {
	if t.FPS <= 0 {
		return 1.0 / 60
	}
	return 1.0 / float64(t.FPS)
}

// DecodedBytesPerFrame returns the decoded frame footprint.
func (t *Trace) DecodedBytesPerFrame() int {
	return t.Params.Width * t.Params.Height * codec.BytesPerPixel
}

// Validate checks internal consistency (sizes, mab counts, display-index
// coverage) and returns a descriptive error for a malformed trace.
func (t *Trace) Validate() error {
	if t.Params.Validate() != nil {
		return fmt.Errorf("trace: invalid params")
	}
	want := t.Params.MabsPerFrame()
	seen := make(map[int]bool, len(t.Frames))
	for i, fr := range t.Frames {
		if fr.Decoded == nil || fr.Work == nil {
			return fmt.Errorf("trace: frame %d missing payload", i)
		}
		if fr.Decoded.W != t.Params.Width || fr.Decoded.H != t.Params.Height {
			return fmt.Errorf("trace: frame %d size %dx%d", i, fr.Decoded.W, fr.Decoded.H)
		}
		if len(fr.Work.Mabs) != want {
			return fmt.Errorf("trace: frame %d has %d mab works, want %d", i, len(fr.Work.Mabs), want)
		}
		if seen[fr.DisplayIndex] {
			return fmt.Errorf("trace: duplicate display index %d", fr.DisplayIndex)
		}
		seen[fr.DisplayIndex] = true
	}
	for i := range t.Frames {
		if !seen[i] {
			return fmt.Errorf("trace: display index %d missing", i)
		}
	}
	return nil
}
