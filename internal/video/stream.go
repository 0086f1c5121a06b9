package video

import (
	"fmt"

	"mach/internal/codec"
)

// StreamConfig controls synthesis of one workload stream.
type StreamConfig struct {
	Width, Height int
	NumFrames     int
	Seed          int64
	MabSize       int
	Quant         int32
}

// DefaultStreamConfig returns the experiments' default scale: 320x180 (the
// paper's 3840x2160 downscaled 12x per axis so full sweeps run in seconds;
// all reported results are ratios, see DESIGN.md), 4x4 mabs, quantizer 8.
func DefaultStreamConfig() StreamConfig {
	return StreamConfig{Width: 320, Height: 180, NumFrames: 120, Seed: 1, MabSize: 4, Quant: 8}
}

// Validate reports malformed configurations.
func (c StreamConfig) Validate() error {
	if c.NumFrames <= 0 {
		return fmt.Errorf("video: NumFrames %d", c.NumFrames)
	}
	return nil
}

// Stream is one synthesized, encoded workload: the decode-order compressed
// frames a streaming app would buffer in memory (§2.1).
type Stream struct {
	Profile Profile
	Params  codec.Params
	Encoded []*codec.EncodedFrame
}

// Synthesize generates cfg.NumFrames frames of prof's content and encodes
// them, returning the decode-order stream; each frame carries the encoder's
// reconstruction and decode work, which is all a trace needs.
func Synthesize(prof Profile, cfg StreamConfig) (*Stream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	gen, err := NewGenerator(prof, cfg.Width, cfg.Height, cfg.Seed)
	if err != nil {
		return nil, err
	}
	params := codec.DefaultParams(cfg.Width, cfg.Height)
	if cfg.MabSize != 0 {
		params.MabSize = cfg.MabSize
	}
	if cfg.Quant != 0 {
		params.Quant = cfg.Quant
	}
	params.GOPLength = prof.GOPLength
	params.BFrames = prof.BFrames
	enc, err := codec.NewEncoder(params)
	if err != nil {
		return nil, err
	}
	st := &Stream{Profile: prof, Params: params, Encoded: make([]*codec.EncodedFrame, 0, cfg.NumFrames)}
	for i := 0; i < cfg.NumFrames; i++ {
		efs, err := enc.Push(gen.Frame())
		if err != nil {
			return nil, err
		}
		st.Encoded = append(st.Encoded, efs...)
	}
	efs, err := enc.Flush()
	if err != nil {
		return nil, err
	}
	st.Encoded = append(st.Encoded, efs...)
	return st, nil
}
