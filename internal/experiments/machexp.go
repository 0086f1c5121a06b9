package experiments

import (
	"errors"
	"fmt"
	"sort"

	"mach/internal/core"
	"mach/internal/framebuf"
	"mach/internal/mach"
	"mach/internal/stats"
)

// Fig7a reproduces the decode-cache size sweep: growing the conventional
// cache helps the compute (reference-fetch) path but not the streaming
// writeback path (paper Fig 7a).
func (r *Runner) Fig7a(sizesKB []int) (*stats.Table, error) {
	if len(sizesKB) == 0 {
		// The paper sweeps 32-512KB against 24MB 4K frames; at simulation
		// scale the decoded frame is ~170KB, so the sweep stops at 256KB to
		// keep the cache well below the multi-frame working set.
		sizesKB = []int{16, 32, 64, 128, 256}
	}
	key := r.Cfg.Videos[0]
	tr, err := r.trace(key)
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("cache-KB", "ref-read-hit", "writeback-hit", "decode-ms-p50")
	for _, kb := range sizesKB {
		cfg := r.Cfg.Platform
		cfg.Decoder.CacheBytes = kb * 1024
		cfg.Decoder.WritebackThroughCache = true
		res, err := core.Run(tr, core.Baseline(), cfg)
		if err != nil {
			return nil, err
		}
		tb.AddRow(kb, pct(res.Dec.RefHitRate()), pct(res.Dec.WbHitRate()),
			fmt.Sprintf("%.2f", 1e3*res.FrameTimes.Quantile(0.5)))
	}
	return tb, nil
}

// Fig7b reproduces the ideal content-similarity analysis: exact matching
// over a 16-frame window with unbounded dictionaries (paper: 42% intra,
// 15% inter, 43% no match for mabs; gab strictly higher).
func (r *Runner) Fig7b() (*stats.Table, error) {
	tb := stats.NewTable("mode", "intra", "inter", "no-match")
	for _, gradient := range []bool{false, true} {
		an := mach.NewAnalyzer(16, r.Cfg.Stream.MabSize, gradient)
		for _, key := range r.Cfg.Videos {
			tr, err := r.trace(key)
			if err != nil {
				return nil, err
			}
			for i := range tr.Frames {
				an.ProcessFrame(tr.Frames[i].Decoded)
			}
		}
		name := "mab"
		if gradient {
			name = "gab"
		}
		tb.AddRow(name, pct(an.IntraRate()), pct(an.InterRate()), pct(an.NoMatchRate()))
	}
	tb.AddRow("paper-mab", "42%", "15%", "43%")
	return tb, nil
}

// machPass runs a standalone MACH writeback over one trace and returns the
// stats (no timing model; pure §4 accounting).
func (r *Runner) machPass(key string, cfg mach.Config) (mach.Stats, error) {
	tr, err := r.trace(key)
	if err != nil {
		return mach.Stats{}, err
	}
	cfg.MabSize = tr.Params.MabSize
	wb, err := mach.NewWriteback(cfg)
	if err != nil {
		return mach.Stats{}, err
	}
	for i := range tr.Frames {
		f := &tr.Frames[i]
		base := framebuf.RegionFrameBuffers + uint64(i%32)*(1<<22)
		dump := framebuf.RegionMachDumps + uint64(i%32)*(1<<16)
		wb.ProcessFrame(f.Decoded, f.DisplayIndex, base, dump, nil)
	}
	return wb.Stats(), nil
}

// Fig9a reproduces the content-caching savings: frame-buffer bytes saved by
// mab-based and gab-based MACH versus the optimal (unbounded, same window)
// matcher (paper: mab 13%, gab 34%, optimal ≈7% above gab).
func (r *Runner) Fig9a() (*stats.Table, error) {
	tb := stats.NewTable("video", "mab-savings", "gab-savings", "optimal-gab", "gab-match", "mab-match")
	var sumM, sumG, sumO float64
	for _, key := range r.Cfg.Videos {
		mabCfg := mach.DefaultConfig()
		mabCfg.Gradient = false
		ms, err := r.machPass(key, mabCfg)
		if err != nil {
			return nil, err
		}
		gs, err := r.machPass(key, mach.DefaultConfig())
		if err != nil {
			return nil, err
		}
		tr, err := r.trace(key)
		if err != nil {
			return nil, err
		}
		opt := mach.NewAnalyzer(mach.DefaultConfig().NumMACHs, tr.Params.MabSize, true)
		for i := range tr.Frames {
			opt.ProcessFrame(tr.Frames[i].Decoded)
		}
		tb.AddRow(key, pct(ms.Savings()), pct(gs.Savings()), pct(opt.Savings()),
			pct(gs.MatchRate()), pct(ms.MatchRate()))
		sumM += ms.Savings()
		sumG += gs.Savings()
		sumO += opt.Savings()
	}
	n := float64(len(r.Cfg.Videos))
	tb.AddRow("avg", pct(sumM/n), pct(sumG/n), pct(sumO/n), "", "")
	tb.AddRow("paper-avg", "13%", "34%", "~41%", "", "")
	return tb, nil
}

// Fig9b reproduces the digest-popularity analysis: the share of all matches
// captured by the most popular digests (paper: the top gab digest captures
// 58% of matches versus 20% for the top mab digest).
func (r *Runner) Fig9b() (*stats.Table, error) {
	key := r.Cfg.Videos[0]
	tb := stats.NewTable("mode", "top-1", "top-8", "top-64", "distinct-digests")
	for _, gradient := range []bool{false, true} {
		cfg := mach.DefaultConfig()
		cfg.Gradient = gradient
		cfg.TrackPopularity = true
		st, err := r.machPass(key, cfg)
		if err != nil {
			return nil, err
		}
		counts := make([]int64, 0, len(st.DigestMatches))
		var total int64
		// Values-only aggregation: the counts are sorted below, so map order
		// cannot leak (TestFig9bPopularity recomputes every share).
		for _, c := range st.DigestMatches {
			counts = append(counts, c)
			total += c
		}
		sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
		cum := func(k int) float64 {
			var s int64
			for i := 0; i < k && i < len(counts); i++ {
				s += counts[i]
			}
			if total == 0 {
				return 0
			}
			return float64(s) / float64(total)
		}
		name := "mab"
		if gradient {
			name = "gab"
		}
		tb.AddRow(name, pct(cum(1)), pct(cum(8)), pct(cum(64)), len(counts))
	}
	tb.AddRow("paper", "mab 20% / gab 58%", "", "", "")
	return tb, nil
}

// Fig11 reproduces the headline result: normalized total energy for the six
// schemes across every workload (paper averages: B 0.93, R 1.12, S 0.887,
// MAB 0.875, GAB 0.79).
func (r *Runner) Fig11() (*stats.Table, error) {
	schemes := core.StandardSchemes()
	header := []string{"video"}
	for _, s := range schemes {
		header = append(header, s.Name)
	}
	header = append(header, "drops-L", "drops-G")
	tb := stats.NewTable(header...)

	sums := make([]float64, len(schemes))
	for _, key := range r.Cfg.Videos {
		tr, err := r.trace(key)
		if err != nil {
			return nil, err
		}
		// The six schemes replay the same trace independently:
		// fan them out over the bounded pool. Results land in scheme
		// order, so normalization and row assembly below stay serial and
		// deterministic.
		results := make([]*core.Result, len(schemes))
		errs := r.runIsolated(len(schemes), func(i int) error {
			res, err := core.Run(tr, schemes[i], r.Cfg.Platform)
			if err != nil {
				return err
			}
			results[i] = res
			return nil
		})
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		row := []any{key}
		base := results[0]
		dropsL := results[0].Drops
		dropsG := results[len(schemes)-1].Drops
		for i, res := range results {
			norm := res.TotalEnergy() / base.TotalEnergy()
			sums[i] += norm
			row = append(row, fmt.Sprintf("%.3f", norm))
		}
		row = append(row, dropsL, dropsG)
		tb.AddRow(row...)
		// Keep memory bounded on full sweeps.
		r.Cache.Drop(key, r.Cfg.Stream)
	}
	avgRow := []any{"avg"}
	for _, s := range sums {
		avgRow = append(avgRow, fmt.Sprintf("%.3f", s/float64(len(r.Cfg.Videos))))
	}
	avgRow = append(avgRow, "", "")
	tb.AddRow(avgRow...)
	tb.AddRow("paper-avg", "1.000", "0.930", "1.120", "0.887", "0.875", "0.790", "4%", "0")
	return tb, nil
}
