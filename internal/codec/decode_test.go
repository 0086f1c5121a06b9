package codec

import (
	"errors"
	"fmt"
	"math"
)

// The functional decoder is the codec's round-trip oracle. Production never
// decodes: the encoder's closed loop already holds each frame's
// reconstruction and decode work. The tests require the decoder, reading one
// bit per step through refBitReader, to reproduce both from the bitstream
// alone; the exported names are visible to the package's external tests.

// ErrBitstream is returned when the decoder runs past the end of the stream
// or reads a malformed code.
var ErrBitstream = errors.New("codec: malformed or truncated bitstream")

// Decoder reconstructs frames from the encoder's decode-order stream and
// reports the per-mab work performed.
type Decoder struct {
	p Params

	// Anchor reconstructions: olderAnchor < newerAnchor in display order.
	// A B frame between them uses older as backward and newer as forward
	// reference; a P frame references the newest anchor.
	olderAnchor *Frame
	newerAnchor *Frame

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
		p: p,
		scratch: decScratch{
			pred:  make([]byte, p.MabBytes()),
			tmp:   make([]byte, p.MabBytes()),
			resid: make([]int32, p.MabSize*p.MabSize),
		},
	}, nil
}

// Decode reconstructs one encoded frame, returning the decoded image and the
// work report. Frames must be presented in decode order.
func (d *Decoder) Decode(ef *EncodedFrame) (*Frame, *FrameWork, error) {
	p := d.p
	n := p.MabSize
	r := &refBitReader{buf: ef.Data}

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
			bitsBefore := r.bits
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

			mw.Bits = int32(r.bits - bitsBefore)
			work.Mabs = append(work.Mabs, mw)
		}
	}
	work.TotalBits = r.bits

	if ft != FrameB {
		d.olderAnchor, d.newerAnchor = d.newerAnchor, recon
	}
	return recon, work, nil
}

// readMV reads a motion vector's two signed components. The encoder never
// writes one beyond its search radius (at most 16), so a component outside
// the int8 range of MotionVector is malformed, not something to wrap.
func readMV(r *refBitReader) (MotionVector, error) {
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

// refBitReader consumes one bit per step: the simplest correct reader of
// what BitWriter writes. Its ReadUE rejects a prefix of more than 32 zeros
// and a code worth 2^32 or more, since no 32-bit value encodes to either.
type refBitReader struct {
	buf  []byte
	pos  int
	nCur uint
	bits int64
}

func (r *refBitReader) ReadBit() (uint32, error) {
	if r.pos >= len(r.buf) {
		return 0, ErrBitstream
	}
	b := (r.buf[r.pos] >> (7 - r.nCur)) & 1
	r.nCur++
	r.bits++
	if r.nCur == 8 {
		r.nCur = 0
		r.pos++
	}
	return uint32(b), nil
}

func (r *refBitReader) ReadBits(n uint) (uint32, error) {
	var v uint32
	for i := uint(0); i < n; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		v = v<<1 | b
	}
	return v, nil
}

func (r *refBitReader) ReadUE() (uint32, error) {
	n := uint(0)
	for {
		b, err := r.ReadBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		n++
		if n > 32 {
			return 0, fmt.Errorf("%w: ue prefix too long", ErrBitstream)
		}
	}
	rest, err := r.ReadBits(n)
	if err != nil {
		return 0, err
	}
	v := uint64(1)<<n | uint64(rest) - 1
	if v > 1<<32-1 {
		return 0, fmt.Errorf("%w: ue value overflows 32 bits", ErrBitstream)
	}
	return uint32(v), nil
}

func (r *refBitReader) ReadSE() (int32, error) {
	u, err := r.ReadUE()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		return int32(u/2 + 1), nil
	}
	return -int32(u / 2), nil
}

// DecodeCoeffs reads what EncodeCoeffs wrote into block (zeroing it first)
// and returns the nonzero count.
func DecodeCoeffs(r *refBitReader, block []int32, n int) (nonzero int, err error) {
	order := ZigZag(n)
	for i := range block[:n*n] {
		block[i] = 0
	}
	pos := 0
	for {
		marker, err := r.ReadBit()
		if err != nil {
			return nonzero, err
		}
		if marker == 0 {
			return nonzero, nil
		}
		run, err := r.ReadUE()
		if err != nil {
			return nonzero, err
		}
		level, err := r.ReadSE()
		if err != nil {
			return nonzero, err
		}
		pos += int(run)
		if pos >= len(order) || level == 0 {
			return nonzero, fmt.Errorf("%w: coefficient overrun", ErrBitstream)
		}
		block[order[pos]] = level
		pos++
		nonzero++
	}
}
