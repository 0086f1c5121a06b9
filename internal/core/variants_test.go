package core

import (
	"crypto/md5"
	"encoding/hex"
	"testing"

	"mach/internal/hashes"
	"mach/internal/video"
)

// TestVariantsPinned pins one canonical result per prehash variant the
// digest table is keyed on (gab mode, digest function, CO-MACH, ABR quant
// shift) and per mab size, plus the Fig 12d shadow that bypasses the table.
// The goldens run GAB(8) with CRC32 over a perfect network only, so without
// this test no tier-1 check would see a quant-shift switch or a mab-mode
// digest drift. The ABR case switches rungs three times (shifts 4, 3, 2
// and 0) on V7, whose B frames decode out of display order; its resumed
// twin is cut after the first switch.
func TestVariantsPinned(t *testing.T) {
	with := func(f func(*Config)) func() Config {
		return func() Config { cfg := testConfig(); f(&cfg); return cfg }
	}
	abr := func() Config { return abrConfig("buffer", 4e6, 0) }
	cases := []struct {
		name   string
		key    string
		mab    int
		frames int
		s      Scheme
		cfg    func() Config
		cut    int // resume from a checkpoint at this frame; 0 runs straight through
		want   string
	}{
		{"mab", "V2", 4, 24, MAB(DefaultBatch), testConfig, 0, "f974a75c9a611a1fa1b09b813c373636"},
		{"gab-comach", "V13", 4, 24, GAB(DefaultBatch), with(func(c *Config) { c.Mach.CoMach = true }), 0, "f31331baecf11785942b3a1c8beb322a"},
		{"gab-md5", "V2", 4, 24, GAB(DefaultBatch), with(func(c *Config) { c.Mach.Digest = hashes.MD5 }), 0, "ad92337a7856df952c34e06e030039fe"},
		{"v14-mab8", "V14", 8, 24, GAB(DefaultBatch), testConfig, 0, "0b076adc3b199e420e9406254ac24b7a"},
		{"gab-collisions", "V7", 4, 24, GAB(DefaultBatch), with(func(c *Config) { c.Mach.TrackCollisions = true }), 0, "c919a07cc72c41c7907ed968c4ea8010"},
		{"v7-abr", "V7", 4, 48, GAB(DefaultBatch), abr, 0, "76ff173df26b2b62ecf5d69ff6eec1db"},
		{"v7-abr-resumed", "V7", 4, 48, GAB(DefaultBatch), abr, 20, "76ff173df26b2b62ecf5d69ff6eec1db"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: c.frames, Seed: 5, MabSize: c.mab, Quant: 8}
			tr, err := BuildTrace(c.key, sc)
			if err != nil {
				t.Fatal(err)
			}
			var res *Result
			if c.cut > 0 {
				res = runResumed(t, tr, c.s, c.cfg(), c.cut)
			} else {
				res = mustRun(t, tr, c.s, c.cfg())
			}
			if c.name == "v7-abr" && res.ABR.Switches != 3 {
				t.Errorf("ABR run made %d rung switches, want 3", res.ABR.Switches)
			}
			sum := md5.Sum(canonicalJSON(t, res))
			if got := hex.EncodeToString(sum[:]); got != c.want {
				t.Errorf("canonical result md5 %s, want %s", got, c.want)
			}
		})
	}
}
