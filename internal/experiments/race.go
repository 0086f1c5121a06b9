package experiments

import (
	"errors"
	"fmt"

	"mach/internal/core"
	"mach/internal/energy"
	"mach/internal/power"
	"mach/internal/sim"
	"mach/internal/stats"
)

// Fig1a reproduces the motivation breakdown: where baseline video playback
// spends its time and energy (paper: VD+display+memory ≈ 85% of time and
// 75% of energy; memory alone 45.8% of energy, video pipeline 29.7%).
func (r *Runner) Fig1a() (*stats.Table, error) {
	res, err := r.run(r.Cfg.Videos[0], core.Baseline())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("component", "energy-mJ", "energy-share", "time-share")
	total := res.TotalEnergy()
	wall := float64(res.WallTime)

	timeShare := map[string]float64{
		energy.CompVDBusy:     float64(res.BusyTime) / wall,
		energy.CompSleep:      float64(res.S1Time+res.S3Time) / wall,
		energy.CompShortSlack: float64(res.IdleTime) / wall,
		energy.CompTransition: float64(res.TransTime) / wall,
	}
	for _, k := range energy.Components() {
		v := res.Energy.Get(k)
		ts := "-"
		if t, ok := timeShare[k]; ok {
			ts = pct(t)
		}
		tb.AddRow(k, 1e3*v, pct(v/total), ts)
	}
	mem := res.Energy.Get(energy.CompMemActPre) + res.Energy.Get(energy.CompMemBurst) + res.Energy.Get(energy.CompMemBackground)
	tb.AddRow("memory-total", 1e3*mem, pct(mem/total), "-")
	return tb, nil
}

// regionSplit classifies every sampled frame time across the given runs.
func regionSplit(results []*core.Result, pcfg power.Config, fps int) (core.RegionCounts, int) {
	period := sim.Time(int64(sim.Second) / int64(fps))
	var total core.RegionCounts
	n := 0
	for _, res := range results {
		rc := res.Regions(period, pcfg)
		total.I += rc.I
		total.II += rc.II
		total.III += rc.III
		total.IV += rc.IV
		n += res.Frames
	}
	return total, n
}

// Fig2 reproduces the frame-time/energy CDF analysis of the baseline
// (Regions I-IV; paper: 4% / 12% / 37% / 40%) and the same distribution
// under 16-frame batching (Fig 2d/2e: drops eliminated, transitions
// amortized 16x).
func (r *Runner) Fig2() (*stats.Table, error) {
	// Two independent runs per video — fan the whole grid out over the
	// pool, with index-slot results keeping the aggregation deterministic.
	nv := len(r.Cfg.Videos)
	base := make([]*core.Result, nv)
	batched := make([]*core.Result, nv)
	errs := r.runIsolated(2*nv, func(i int) error {
		key := r.Cfg.Videos[i/2]
		s := core.Baseline()
		if i%2 == 1 {
			s = core.Batching(16)
		}
		res, err := r.run(key, s)
		if err != nil {
			return err
		}
		if i%2 == 0 {
			base[i/2] = res
		} else {
			batched[i/2] = res
		}
		return nil
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	var drops, dropsBatched int64
	for i := range base {
		drops += base[i].Drops
		dropsBatched += batched[i].Drops
	}
	pcfg := r.Cfg.Platform.Power
	rc, n := regionSplit(base, pcfg, 60)

	tb := stats.NewTable("series", "I(drop)", "II(short)", "III(S1)", "IV(S3)", "drops", "trans/frame")
	nf := float64(n)
	var transBase, transBatch, frames float64
	for i := range base {
		transBase += float64(base[i].Transitions)
		transBatch += float64(batched[i].Transitions)
		frames += float64(base[i].Frames)
	}
	tb.AddRow("baseline",
		pct(float64(rc.I)/nf), pct(float64(rc.II)/nf), pct(float64(rc.III)/nf), pct(float64(rc.IV)/nf),
		drops, fmt.Sprintf("%.2f", transBase/frames))
	rcB, nB := regionSplit(batched, pcfg, 60)
	nfB := float64(nB)
	tb.AddRow("batch-16",
		pct(float64(rcB.I)/nfB), pct(float64(rcB.II)/nfB), pct(float64(rcB.III)/nfB), pct(float64(rcB.IV)/nfB),
		dropsBatched, fmt.Sprintf("%.2f", transBatch/frames))
	tb.AddRow("paper-baseline", "4%", "12%", "37%", "40%", "4% of frames", "~1")
	return tb, nil
}

// Fig4 reproduces the batch-size sweep (Fig 4a/4b): per-frame transition
// count/energy and decoder-path energy versus batch depth, at both DVFS
// points (Fig 4c/4d add racing).
func (r *Runner) Fig4(batches []int) (*stats.Table, error) {
	if len(batches) == 0 {
		batches = []int{1, 2, 4, 8, 16}
	}
	key := r.Cfg.Videos[0]
	tb := stats.NewTable("scheme", "batch", "trans/frame", "trans-mJ/frame", "vd-path-mJ/frame", "drops", "S3%")
	for _, race := range []bool{false, true} {
		for _, n := range batches {
			s := core.Scheme{Name: "sweep", Batch: n, Race: race}
			res, err := r.run(key, s)
			if err != nil {
				return nil, err
			}
			frames := float64(res.Frames)
			vdPath := res.Energy.Get(energy.CompVDBusy) + res.Energy.Get(energy.CompSleep) +
				res.Energy.Get(energy.CompShortSlack) + res.Energy.Get(energy.CompTransition)
			name := "batch"
			if race {
				name = "race+batch"
			}
			tb.AddRow(name, n,
				fmt.Sprintf("%.2f", float64(res.Transitions)/frames),
				1e3*res.Energy.Get(energy.CompTransition)/frames,
				1e3*vdPath/frames,
				res.Drops,
				pct(res.S3Residency()))
		}
	}
	return tb, nil
}

// Fig5 reproduces the row-buffer analysis: DRAM Activate/Precharge counts
// and energy at the low versus high decoder frequency on the same content
// (paper: racing cuts Act/Pre ≈20% and memory energy ≈1 mJ/frame while the
// VD spends ≈0.5 mJ more).
func (r *Runner) Fig5() (*stats.Table, error) {
	key := r.Cfg.Videos[0]
	base, err := r.run(key, core.Baseline())
	if err != nil {
		return nil, err
	}
	race, err := r.run(key, core.Racing())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("metric", "VD@150MHz", "VD@300MHz", "change")
	frames := float64(base.Frames)
	rows := []struct {
		name string
		b, r float64
	}{
		{"activates/frame", float64(base.Mem.Activates) / frames, float64(race.Mem.Activates) / frames},
		{"row-hit-rate", base.Mem.RowHitRate(), race.Mem.RowHitRate()},
		{"actpre-mJ/frame", 1e3 * float64(base.MemEnergy.ActPre) / frames, 1e3 * float64(race.MemEnergy.ActPre) / frames},
		{"burst-mJ/frame", 1e3 * float64(base.MemEnergy.Burst) / frames, 1e3 * float64(race.MemEnergy.Burst) / frames},
		{"vd-busy-mJ/frame", 1e3 * base.Energy.Get(energy.CompVDBusy) / frames, 1e3 * race.Energy.Get(energy.CompVDBusy) / frames},
	}
	for _, row := range rows {
		change := "n/a"
		if row.b != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(row.r-row.b)/row.b)
		}
		tb.AddRow(row.name, fmt.Sprintf("%.3f", row.b), fmt.Sprintf("%.3f", row.r), change)
	}
	return tb, nil
}

// Fig6 reproduces the Race-to-Sleep grid: normalized energy versus batch
// size (1..16) at both frequencies (paper: ≥7% savings from 2 buffered
// frames, 12.9% at 16 with the high frequency).
func (r *Runner) Fig6(batches []int) (*stats.Table, error) {
	if len(batches) == 0 {
		batches = []int{1, 2, 4, 8, 12, 16}
	}
	key := r.Cfg.Videos[0]
	base, err := r.run(key, core.Baseline())
	if err != nil {
		return nil, err
	}
	tb := stats.NewTable("batch", "norm-energy@150MHz", "norm-energy@300MHz")
	for _, n := range batches {
		lo, err := r.run(key, core.Scheme{Name: "lo", Batch: n})
		if err != nil {
			return nil, err
		}
		hi, err := r.run(key, core.Scheme{Name: "hi", Batch: n, Race: true})
		if err != nil {
			return nil, err
		}
		tb.AddRow(n, ratio(lo.TotalEnergy(), base.TotalEnergy()), ratio(hi.TotalEnergy(), base.TotalEnergy()))
	}
	return tb, nil
}
