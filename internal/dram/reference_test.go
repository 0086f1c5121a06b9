package dram

import (
	"math/rand"
	"testing"
)

// refRoute is the division form route replaced with shifts and masks, kept
// as its oracle: it peels each field off the line address by remainder and
// quotient, least significant first.
func refRoute(cfg Config, addr uint64) (bankIdx int, row int64) {
	linesPerRow := uint64(cfg.RowBytes / cfg.LineBytes)
	line := addr / uint64(cfg.LineBytes)
	ch := line % uint64(cfg.Channels)
	line /= uint64(cfg.Channels)
	var bk, rk uint64
	switch cfg.Mapping {
	case RoCoRaBaCh:
		bk = line % uint64(cfg.BanksPerRank)
		line /= uint64(cfg.BanksPerRank)
		rk = line % uint64(cfg.RanksPerChannel)
		line /= uint64(cfg.RanksPerChannel)
		line /= linesPerRow // drop column bits
	default: // RoRaBaCoCh
		line /= linesPerRow // drop column bits
		bk = line % uint64(cfg.BanksPerRank)
		line /= uint64(cfg.BanksPerRank)
		rk = line % uint64(cfg.RanksPerChannel)
		line /= uint64(cfg.RanksPerChannel)
	}
	row = int64(line % (1 << 20))
	bankIdx = int(ch)*cfg.RanksPerChannel*cfg.BanksPerRank +
		int(rk)*cfg.BanksPerRank + int(bk)
	return bankIdx, row
}

// TestRouteMatchesReference compares route with refRoute over a grid of
// power-of-two topologies and both mappings, on every field boundary (each
// power of two and its neighbours, so every bit flips on its own) and on
// random addresses.
func TestRouteMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var addrs []uint64
	for b := 0; b < 64; b++ {
		p := uint64(1) << b
		addrs = append(addrs, p-1, p, p+1, ^p, ^uint64(0)-p)
	}
	for i := 0; i < 300; i++ {
		addrs = append(addrs, rng.Uint64(), rng.Uint64()>>uint(rng.Intn(64)))
	}
	for _, mapping := range []AddressMapping{RoRaBaCoCh, RoCoRaBaCh} {
		for _, channels := range []int{1, 2, 4} {
			for _, ranks := range []int{1, 2} {
				for _, banks := range []int{2, 4, 8, 16} {
					for _, rowBytes := range []Bytes{512, 1024, 2048, 4096, 8192} {
						for _, lineBytes := range []Bytes{32, 64, 128} {
							cfg := DefaultConfig()
							cfg.Mapping, cfg.Channels, cfg.RanksPerChannel, cfg.BanksPerRank = mapping, channels, ranks, banks
							cfg.RowBytes, cfg.LineBytes = rowBytes, lineBytes
							m := New(cfg)
							for _, a := range addrs {
								gb, gr := m.route(a)
								wb, wr := refRoute(cfg, a)
								if gb != wb || gr != wr {
									t.Fatalf("%v %d/%d/%d row %d line %d: route(%#x) = bank %d row %d, want bank %d row %d",
										mapping, channels, ranks, banks, rowBytes, lineBytes, a, gb, gr, wb, wr)
								}
							}
						}
					}
				}
			}
		}
	}
}
