package codec

import "fmt"

// FrameType classifies whole encoded frames.
type FrameType uint8

const (
	// FrameI is self-contained (all intra mabs).
	FrameI FrameType = iota
	// FrameP predicts from the previous anchor (I or P) frame.
	FrameP
	// FrameB predicts bidirectionally from the surrounding anchors.
	FrameB
)

func (t FrameType) String() string {
	switch t {
	case FrameI:
		return "I"
	case FrameP:
		return "P"
	case FrameB:
		return "B"
	default:
		return "?"
	}
}

// MabType classifies individual macroblocks; P and B frames may contain any
// mix (footnote 1 of the paper), which is the source of per-frame decode-time
// variability.
type MabType uint8

const (
	// MabI is intra predicted.
	MabI MabType = iota
	// MabP is motion compensated from one reference.
	MabP
	// MabB is bi-directionally compensated from two references.
	MabB
)

func (t MabType) String() string {
	switch t {
	case MabI:
		return "I"
	case MabP:
		return "P"
	case MabB:
		return "B"
	default:
		return "?"
	}
}

// Params configures an encoder/decoder pair. Width and Height must be
// multiples of MabSize; MabSize must be a power of two in [2, 16].
type Params struct {
	Width, Height int
	MabSize       int
	Quant         int32 // uniform quantizer step; 1 = lossless
	GOPLength     int   // display frames between I frames (>= 1)
	BFrames       int   // B frames between consecutive anchors (0..3)
	SearchRadius  int   // full-pel motion search window
	// InterThresholdPerPixel accepts an inter prediction when its SAD per
	// pixel-byte is at or below this value; otherwise intra competes.
	InterThresholdPerPixel float64
}

// DefaultParams returns the configuration used throughout the experiments:
// 4x4 mabs (the paper's choice, Fig 12c), IPPP GOPs of 32, quantizer 8.
func DefaultParams(w, h int) Params {
	return Params{
		Width: w, Height: h,
		MabSize:                4,
		Quant:                  8,
		GOPLength:              32,
		BFrames:                0,
		SearchRadius:           3,
		InterThresholdPerPixel: 3.0,
	}
}

// Validate reports a descriptive error for malformed parameters.
func (p Params) Validate() error {
	switch {
	case p.Width <= 0 || p.Height <= 0:
		return fmt.Errorf("codec: invalid size %dx%d", p.Width, p.Height)
	case p.MabSize < 2 || p.MabSize > 16 || p.MabSize&(p.MabSize-1) != 0:
		return fmt.Errorf("codec: mab size %d not a power of two in [2,16]", p.MabSize)
	case p.Width%p.MabSize != 0 || p.Height%p.MabSize != 0:
		return fmt.Errorf("codec: size %dx%d not a multiple of mab %d", p.Width, p.Height, p.MabSize)
	case p.Quant < 1:
		return fmt.Errorf("codec: quant %d < 1", p.Quant)
	case p.GOPLength < 1:
		return fmt.Errorf("codec: GOP %d < 1", p.GOPLength)
	case p.BFrames < 0 || p.BFrames > 3:
		return fmt.Errorf("codec: BFrames %d outside [0,3]", p.BFrames)
	case p.SearchRadius < 0 || p.SearchRadius > 16:
		return fmt.Errorf("codec: search radius %d outside [0,16]", p.SearchRadius)
	}
	return nil
}

// MabBytes returns the decoded byte size of one mab.
func (p Params) MabBytes() int { return p.MabSize * p.MabSize * BytesPerPixel }

// MabsPerFrame returns the mab count per frame.
func (p Params) MabsPerFrame() int {
	return (p.Width / p.MabSize) * (p.Height / p.MabSize)
}

// EncodedFrame is one compressed frame as buffered in memory (§2.1: encoded
// frames take hundreds of KB and are buffered ahead of the decoder). The
// encoder runs a closed loop, so it also knows what a decoder makes of Data:
// Recon is the decoded image and Work the decode work, both read-only.
type EncodedFrame struct {
	Type         FrameType
	DisplayIndex int    // position in display order
	Data         []byte // the bitstream
	Recon        *Frame
	Work         *FrameWork
}

// SizeBytes returns the buffered size of the encoded frame.
func (f *EncodedFrame) SizeBytes() int { return len(f.Data) }

// MabWork records the decode work one mab requires; the decoder-IP timing
// model converts these into cycles and memory traffic. It holds only what
// the bitstream carries: MV on P mabs, MVB and MVF on B mabs, Mode on intra
// mabs, and zero elsewhere.
type MabWork struct {
	Type     MabType
	Bits     int32 // entropy bits parsed for this mab
	Nonzero  int16 // nonzero coefficients reconstructed (inverse-transform work)
	RefReads int8  // reference block fetches (0 for I, 1 for P, 2 for B)
	MV       MotionVector
	MVB, MVF MotionVector
	Mode     IntraMode
}

// FrameWork aggregates decode work for a whole frame; TotalBits includes
// the frame header.
type FrameWork struct {
	Type         FrameType
	DisplayIndex int
	Mabs         []MabWork
	TotalBits    int64
	CountI       int
	CountP       int
	CountB       int
}
