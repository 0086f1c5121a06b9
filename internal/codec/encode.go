package codec

import "fmt"

// Encoder compresses frames pushed in display order and emits encoded frames
// in decode order (anchors before the B frames that reference them). It runs
// a closed loop: predictions use reconstructed pixels, exactly what the
// decoder will see, so encoder and decoder reconstructions are bit-identical.
// Each emitted frame carries that reconstruction and its decode work.
type Encoder struct {
	p Params

	display int // next display index to be pushed

	prevAnchor *Frame          // reconstruction of the last emitted anchor
	pendingB   []*pendingFrame // display-order B candidates awaiting next anchor

	scratch encScratch
}

type pendingFrame struct {
	frame *Frame
	index int
}

type encScratch struct {
	src   []byte
	pred  []byte
	resid [3][]int32
	cand  []byte // the bi-prediction under test, then intra-search scratch
	tmp   []byte // CompensateBi's forward prediction
}

// NewEncoder returns an encoder for p, or an error for invalid parameters.
func NewEncoder(p Params) (*Encoder, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mb := p.MabBytes()
	n := p.MabSize * p.MabSize
	e := &Encoder{p: p}
	e.scratch = encScratch{
		src:  make([]byte, mb),
		pred: make([]byte, mb),
		cand: make([]byte, mb),
		tmp:  make([]byte, mb),
	}
	for c := 0; c < 3; c++ {
		e.scratch.resid[c] = make([]int32, n)
	}
	return e, nil
}

// Push encodes one display-order frame and returns zero or more encoded
// frames in decode order. With BFrames=0 every push returns exactly one
// frame; otherwise B frames are buffered until their forward anchor arrives.
func (e *Encoder) Push(f *Frame) ([]*EncodedFrame, error) {
	if f.W != e.p.Width || f.H != e.p.Height {
		return nil, fmt.Errorf("codec: frame %dx%d does not match params %dx%d", f.W, f.H, e.p.Width, e.p.Height)
	}
	idx := e.display
	e.display++

	isAnchor := e.p.BFrames == 0 || idx%(e.p.BFrames+1) == 0 || e.prevAnchor == nil
	if !isAnchor {
		e.pendingB = append(e.pendingB, &pendingFrame{frame: f.Clone(), index: idx})
		return nil, nil
	}

	ft := FrameP
	if idx%e.p.GOPLength == 0 || e.prevAnchor == nil {
		ft = FrameI
	}
	backRef := e.prevAnchor
	anchor := e.encodeFrame(f, idx, ft, backRef, nil)
	out := []*EncodedFrame{anchor}

	// Now the buffered B frames have both their references reconstructed.
	for _, pb := range e.pendingB {
		out = append(out, e.encodeFrame(pb.frame, pb.index, FrameB, backRef, anchor.Recon))
	}
	e.pendingB = e.pendingB[:0]
	e.prevAnchor = anchor.Recon
	return out, nil
}

// Flush encodes any buffered B frames as P frames (they degrade to
// single-reference prediction) and resets the pending queue. A decoder makes
// every P frame its new anchor, so each flushed frame predicts from the one
// flushed before it.
func (e *Encoder) Flush() ([]*EncodedFrame, error) {
	var out []*EncodedFrame
	for _, pb := range e.pendingB {
		ef := e.encodeFrame(pb.frame, pb.index, FrameP, e.prevAnchor, nil)
		out = append(out, ef)
		e.prevAnchor = ef.Recon
	}
	e.pendingB = e.pendingB[:0]
	return out, nil
}

// encodeFrame compresses one frame of the given type. back is the backward
// reference (nil only for I frames at stream start); fwd is the forward
// reference for B frames. It records each mab's work as it writes it: the
// bits are the writer's count across the mab, and the vectors and mode are
// the ones written, not the inter candidates intra won over.
func (e *Encoder) encodeFrame(src *Frame, idx int, ft FrameType, back, fwd *Frame) *EncodedFrame {
	p := e.p
	n := p.MabSize
	recon := NewFrame(p.Width, p.Height)
	work := &FrameWork{Type: ft, DisplayIndex: idx, Mabs: make([]MabWork, 0, p.MabsPerFrame())}
	w := NewBitWriter()

	w.WriteUE(uint32(ft))
	w.WriteUE(uint32(idx))
	w.WriteUE(uint32(p.Quant))

	threshold := int(e.p.InterThresholdPerPixel * float64(p.MabBytes()))

	for y0 := 0; y0 < p.Height; y0 += n {
		for x0 := 0; x0 < p.Width; x0 += n {
			src.CopyBlock(x0, y0, n, e.scratch.src)

			mt := MabI
			var mv, mvb, mvf MotionVector
			var mode IntraMode

			switch ft {
			case FrameP:
				if back != nil {
					var sad int
					mv, sad = MotionSearch(back, x0, y0, n, p.SearchRadius, e.scratch.src)
					if sad <= threshold {
						mt = MabP
					}
				}
			case FrameB:
				if back != nil && fwd != nil {
					var sb int
					mvb, sb = MotionSearch(back, x0, y0, n, p.SearchRadius, e.scratch.src)
					mvf, _ = MotionSearch(fwd, x0, y0, n, p.SearchRadius, e.scratch.src)
					CompensateBi(back, fwd, x0, y0, n, mvb, mvf, e.scratch.cand, e.scratch.tmp)
					if SAD(e.scratch.src, e.scratch.cand) <= threshold {
						mt = MabB
					} else if sb <= threshold {
						mt, mv = MabP, mvb
					}
				}
			}

			// Build the prediction; intra competes when inter was rejected.
			switch mt {
			case MabP:
				Compensate(back, x0, y0, n, mv, e.scratch.pred)
			case MabB:
				copy(e.scratch.pred, e.scratch.cand)
			default:
				mode, _ = BestIntraMode(recon, x0, y0, n, e.scratch.src, e.scratch.cand)
				IntraPredict(recon, x0, y0, n, mode, e.scratch.pred)
			}

			// Syntax: mab type, then prediction parameters.
			bitsBefore := w.Bits()
			mw := MabWork{Type: mt}
			w.WriteUE(uint32(mt))
			switch mt {
			case MabI:
				w.WriteUE(uint32(mode))
				mw.Mode = mode
				work.CountI++
			case MabP:
				w.WriteSE(int32(mv.DX))
				w.WriteSE(int32(mv.DY))
				mw.MV, mw.RefReads = mv, 1
				work.CountP++
			case MabB:
				w.WriteSE(int32(mvb.DX))
				w.WriteSE(int32(mvb.DY))
				w.WriteSE(int32(mvf.DX))
				w.WriteSE(int32(mvf.DY))
				mw.MVB, mw.MVF, mw.RefReads = mvb, mvf, 2
				work.CountB++
			}

			// Residual per channel: transform, quantize, entropy-code, and
			// reconstruct in the loop.
			for c := 0; c < 3; c++ {
				res := e.scratch.resid[c]
				for i := 0; i < n*n; i++ {
					res[i] = int32(e.scratch.src[i*3+c]) - int32(e.scratch.pred[i*3+c])
				}
				ForwardTransform(res, n)
				Quantize(res, p.Quant)
				mw.Nonzero += int16(EncodeCoeffs(w, res, n))
				Dequantize(res, p.Quant)
				InverseTransform(res, n)
				for i := 0; i < n*n; i++ {
					e.scratch.pred[i*3+c] = clampByte(int32(e.scratch.pred[i*3+c]) + res[i])
				}
			}
			recon.SetBlock(x0, y0, n, e.scratch.pred)
			mw.Bits = int32(w.Bits() - bitsBefore)
			work.Mabs = append(work.Mabs, mw)
		}
	}
	work.TotalBits = w.Bits()

	return &EncodedFrame{Type: ft, DisplayIndex: idx, Data: w.Bytes(), Recon: recon, Work: work}
}
