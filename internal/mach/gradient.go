// Package mach implements the paper's central contribution: MACH, the
// MAcroblock caCHe (§4). MACH deduplicates decoded macroblock content on its
// way to the frame buffer by digesting each mab (or its gradient block, gab)
// with CRC32 and remembering where identical content already lives in
// memory. Matched mabs are written as 4-byte pointers (plus a 3-byte base in
// gab mode) instead of 48-byte pixel blocks, cutting memory writes, and the
// display later reads the deduplicated layout through its own content caches
// (package display).
package mach

// ComputeGab converts a decoded mab into its gradient block and base pixel
// (§4.3): the base is the first (top-left) pixel, and every pixel of the gab
// is the channel-wise difference from the base, modulo 256. Two mabs that
// differ only by a constant colour offset have identical gabs — in
// particular, every pure-colour mab maps to the all-zero gab, which is why
// the top gab digest captures 58% of matches in Fig 9b.
//
// gab must have the same length as mab (a multiple of 3); base receives the
// first pixel.
func ComputeGab(mab []byte, base *[3]byte, gab []byte) {
	if len(gab) < len(mab) || len(mab) < 3 {
		panic("mach: bad gab buffer sizes")
	}
	base[0], base[1], base[2] = mab[0], mab[1], mab[2]
	for i := 0; i < len(mab); i += 3 {
		gab[i] = mab[i] - base[0]
		gab[i+1] = mab[i+1] - base[1]
		gab[i+2] = mab[i+2] - base[2]
	}
}
