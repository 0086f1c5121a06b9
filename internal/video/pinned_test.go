package video

import (
	"crypto/md5"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"
)

// TestSynthesisPinned pins trace synthesis to the byte: for each case one
// md5 over every encoded frame (type, display index, bitstream) in decode
// order, the encoder's reconstruction of that frame, and its decode work
// (per-mab type, intra mode, motion vectors, parsed bits and nonzero
// coefficients, plus the frame's total bits). The decoder-IP cost model
// charges per parsed bit, so a kernel rewrite in internal/codec must leave
// all of it unchanged, not merely the image quality. That the bitstream
// decodes to the same pixels and work is internal/codec's round-trip oracle. The goldens run 4x4
// mabs only; Fig 12c re-encodes V14 at 2x2, 8x8 and 16x16, so those are
// pinned here too.
func TestSynthesisPinned(t *testing.T) {
	cases := []struct {
		key  string
		mab  int
		want string
	}{
		{"V2", 4, "dba919313d9e3b3e8b8df7517d06b653"},
		{"V7", 4, "730ca7bcf827da266361c01b152e450e"},
		{"V13", 4, "20d4f6fa39c2c4f989951b3b6510cd03"},
		{"V14", 2, "4c4982edd23c01fff83a605a52d82df0"},
		{"V14", 8, "3e3d6c47b678d3e9019e7a468761ccbf"},
		{"V14", 16, "0cc36056c662e1ba2720e3e01ad0dc63"},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/mab%d", c.key, c.mab), func(t *testing.T) {
			prof, err := ProfileByKey(c.key)
			if err != nil {
				t.Fatal(err)
			}
			cfg := StreamConfig{Width: 160, Height: 96, NumFrames: 24, Seed: 1, MabSize: c.mab, Quant: 8}
			if got := synthesisDigest(t, prof, cfg); got != c.want {
				t.Errorf("synthesis digest %s, want %s", got, c.want)
			}
		})
	}
}

// synthesisDigest synthesizes one stream and hashes everything the
// simulators read from it.
func synthesisDigest(t *testing.T, prof Profile, cfg StreamConfig) string {
	t.Helper()
	st, err := Synthesize(prof, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := md5.New()
	for _, ef := range st.Encoded {
		writeInts(h, int64(ef.Type), int64(ef.DisplayIndex), int64(len(ef.Data)))
		h.Write(ef.Data)
		h.Write(ef.Recon.Pix)
		work := ef.Work
		for _, mw := range work.Mabs {
			writeInts(h, int64(mw.Type), int64(mw.Mode),
				int64(mw.MV.DX), int64(mw.MV.DY),
				int64(mw.MVB.DX), int64(mw.MVB.DY),
				int64(mw.MVF.DX), int64(mw.MVF.DY),
				int64(mw.Bits), int64(mw.Nonzero))
		}
		writeInts(h, work.TotalBits)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func writeInts(h hash.Hash, vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
}
