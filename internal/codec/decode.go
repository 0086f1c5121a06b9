package codec

import (
	"fmt"
	"math"
)

// Decoder reconstructs frames from the encoder's decode-order stream and
// reports the per-mab work performed, which the decoder-IP model turns into
// cycles and memory traffic.
type Decoder struct {
	p Params

	// Anchor reconstructions: olderAnchor < newerAnchor in display order.
	// A B frame between them uses older as backward and newer as forward
	// reference; a P frame references the newest anchor.
	olderAnchor   *Frame
	newerAnchor   *Frame
	olderAnchorIx int
	newerAnchorIx int

	scratch decScratch
}

type decScratch struct {
	pred  []byte
	tmp   []byte // CompensateBi's forward prediction
	resid []int32
}

// NewDecoder returns a decoder for p, or an error for invalid parameters.
func NewDecoder(p Params) (*Decoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{
		p:             p,
		olderAnchorIx: -1,
		newerAnchorIx: -1,
		scratch: decScratch{
			pred:  make([]byte, p.MabBytes()),
			tmp:   make([]byte, p.MabBytes()),
			resid: make([]int32, p.MabSize*p.MabSize),
		},
	}, nil
}

// Params returns the decoder configuration.
func (d *Decoder) Params() Params { return d.p }

// Decode reconstructs one encoded frame, returning the decoded image and the
// work report. Frames must be presented in decode order.
func (d *Decoder) Decode(ef *EncodedFrame) (*Frame, *FrameWork, error) {
	p := d.p
	n := p.MabSize
	r := NewBitReader(ef.Data)

	ftRaw, err := r.ReadUE()
	if err != nil {
		return nil, nil, err
	}
	ft := FrameType(ftRaw)
	idxRaw, err := r.ReadUE()
	if err != nil {
		return nil, nil, err
	}
	idx := int(idxRaw)
	quantRaw, err := r.ReadUE()
	if err != nil {
		return nil, nil, err
	}
	quant := int32(quantRaw)
	if quant < 1 {
		return nil, nil, fmt.Errorf("%w: quant %d", ErrBitstream, quant)
	}

	var back, fwd *Frame
	switch ft {
	case FrameI:
		// self-contained
	case FrameP:
		back = d.newerAnchor
		if back == nil {
			return nil, nil, fmt.Errorf("%w: P frame %d without reference", ErrBitstream, idx)
		}
	case FrameB:
		back, fwd = d.olderAnchor, d.newerAnchor
		if back == nil || fwd == nil {
			return nil, nil, fmt.Errorf("%w: B frame %d without two references", ErrBitstream, idx)
		}
	default:
		return nil, nil, fmt.Errorf("%w: frame type %d", ErrBitstream, ftRaw)
	}

	recon := NewFrame(p.Width, p.Height)
	work := &FrameWork{
		Type:         ft,
		DisplayIndex: idx,
		Mabs:         make([]MabWork, 0, p.MabsPerFrame()),
	}

	for y0 := 0; y0 < p.Height; y0 += n {
		for x0 := 0; x0 < p.Width; x0 += n {
			bitsBefore := r.BitsRead()
			mtRaw, err := r.ReadUE()
			if err != nil {
				return nil, nil, err
			}
			mt := MabType(mtRaw)
			mw := MabWork{Type: mt}

			switch mt {
			case MabI:
				modeRaw, err := r.ReadUE()
				if err != nil {
					return nil, nil, err
				}
				mw.Mode = IntraMode(modeRaw)
				IntraPredict(recon, x0, y0, n, mw.Mode, d.scratch.pred)
				work.CountI++
			case MabP:
				mv, err := readMV(r)
				if err != nil {
					return nil, nil, err
				}
				if back == nil {
					return nil, nil, fmt.Errorf("%w: P mab without reference", ErrBitstream)
				}
				mw.MV = mv
				mw.RefReads = 1
				Compensate(back, x0, y0, n, mw.MV, d.scratch.pred)
				work.CountP++
			case MabB:
				mvb, err := readMV(r)
				if err != nil {
					return nil, nil, err
				}
				mvf, err := readMV(r)
				if err != nil {
					return nil, nil, err
				}
				if back == nil || fwd == nil {
					return nil, nil, fmt.Errorf("%w: B mab outside a B frame", ErrBitstream)
				}
				mw.MVB, mw.MVF = mvb, mvf
				mw.RefReads = 2
				CompensateBi(back, fwd, x0, y0, n, mw.MVB, mw.MVF, d.scratch.pred, d.scratch.tmp)
				work.CountB++
			default:
				return nil, nil, fmt.Errorf("%w: mab type %d", ErrBitstream, mtRaw)
			}

			for c := 0; c < 3; c++ {
				nz, err := DecodeCoeffs(r, d.scratch.resid, n)
				if err != nil {
					return nil, nil, err
				}
				mw.Nonzero += int16(nz)
				Dequantize(d.scratch.resid, quant)
				InverseTransform(d.scratch.resid, n)
				for i := 0; i < n*n; i++ {
					d.scratch.pred[i*3+c] = clampByte(int32(d.scratch.pred[i*3+c]) + d.scratch.resid[i])
				}
			}
			recon.SetBlock(x0, y0, n, d.scratch.pred)

			mw.Bits = int32(r.BitsRead() - bitsBefore)
			work.Mabs = append(work.Mabs, mw)
		}
	}
	work.TotalBits = r.BitsRead()

	if ft != FrameB {
		d.olderAnchor, d.olderAnchorIx = d.newerAnchor, d.newerAnchorIx
		d.newerAnchor, d.newerAnchorIx = recon, idx
	}
	return recon, work, nil
}

// readMV reads a motion vector's two signed components. The encoder never
// writes one beyond its search radius (at most 16), so a component outside
// the int8 range of MotionVector is malformed, not something to wrap.
func readMV(r *BitReader) (MotionVector, error) {
	var c [2]int8
	for i := range c {
		v, err := r.ReadSE()
		if err != nil {
			return MotionVector{}, err
		}
		if v < math.MinInt8 || v > math.MaxInt8 {
			return MotionVector{}, fmt.Errorf("%w: motion component %d", ErrBitstream, v)
		}
		c[i] = int8(v)
	}
	return MotionVector{DX: c[0], DY: c[1]}, nil
}
