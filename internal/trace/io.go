package trace

import (
	"encoding/json"
	"io"
)

// Summary is the JSON-exportable digest of a trace (no pixel payload).
type Summary struct {
	Profile         string  `json:"profile"`
	FPS             int     `json:"fps"`
	Width           int     `json:"width"`
	Height          int     `json:"height"`
	MabSize         int     `json:"mab_size"`
	Frames          int     `json:"frames"`
	EncodedBytes    int     `json:"encoded_bytes"`
	MabsI           int     `json:"mabs_i"`
	MabsP           int     `json:"mabs_p"`
	MabsB           int     `json:"mabs_b"`
	AvgBitsPerFrame float64 `json:"avg_bits_per_frame"`
}

// Summarize computes the trace digest.
func (t *Trace) Summarize() Summary {
	s := Summary{
		Profile: t.Profile,
		FPS:     t.FPS,
		Width:   t.Params.Width,
		Height:  t.Params.Height,
		MabSize: t.Params.MabSize,
		Frames:  len(t.Frames),
	}
	var bits int64
	for i := range t.Frames {
		f := &t.Frames[i]
		s.EncodedBytes += f.EncodedBytes
		s.MabsI += f.Work.CountI
		s.MabsP += f.Work.CountP
		s.MabsB += f.Work.CountB
		bits += f.Work.TotalBits
	}
	if len(t.Frames) > 0 {
		s.AvgBitsPerFrame = float64(bits) / float64(len(t.Frames))
	}
	return s
}

// WriteJSON writes the summary as indented JSON.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t.Summarize())
}
