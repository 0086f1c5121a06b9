package fleet

import (
	"encoding/json"
	"fmt"
	"strings"

	"mach/internal/stats"
)

// dramHistBins is the fixed bin count of the DRAM-traffic histogram.
const dramHistBins = 16

// DramHistogram is the population histogram of per-frame DRAM traffic in
// KiB: fixed-shape bins over [0, HiKB), HiKB the power-of-two ceiling of the
// observed maximum — data-dependent but deterministic, so the histogram is
// identical under any shard/worker topology.
type DramHistogram struct {
	HiKB   float64 `json:"hi_kb"`
	Counts []int64 `json:"counts"`
}

// Aggregate is the population-level report of one fleet run: energy-per-user
// and QoE distributions, DRAM-traffic histograms, and the robustness
// counters. It folds committed sessions in session order and carries nothing
// about execution topology, so it is bit-identical under any shard count,
// worker count, or session permutation — and across a kill/resume.
type Aggregate struct {
	Format   int    `json:"format"`
	Sessions int    `json:"sessions"`
	Seed     int64  `json:"seed"`
	Scheme   string `json:"scheme"`

	// Completed + Quarantined partition the population. Restarts is
	// always 0: shards are never restarted within a run, and the key stays
	// so the canonical JSON keeps its schema.
	Completed   int                `json:"completed"`
	Quarantined int                `json:"quarantined"`
	Restarts    int                `json:"restarts"`
	Quarantine  []QuarantineRecord `json:"quarantine,omitempty"`

	// ProfileSessions counts planned sessions per workload key.
	ProfileSessions map[string]int `json:"profile_sessions"`

	// Population distributions over completed sessions.
	EnergyJ      stats.Summary `json:"energy_j"`
	RadioJ       stats.Summary `json:"radio_j"`
	DropRate     stats.Summary `json:"drop_rate"`
	RebufferRate stats.Summary `json:"rebuffer_rate"`
	StartupMs    stats.Summary `json:"startup_ms"`
	DramPerFrame DramHistogram `json:"dram_per_frame_kb"`

	// Fleet totals over completed sessions.
	TotalFrames    int64   `json:"total_frames"`
	TotalDrops     int64   `json:"total_drops"`
	TotalRebuffers int64   `json:"total_rebuffers"`
	TotalEnergyJ   float64 `json:"total_energy_j"`
}

// aggregate reduces the shards' committed outcomes. Shards own contiguous
// ascending ranges, so walking them in shard order folds sessions in session
// order — the float accumulation order is pinned.
func (s *Supervisor) aggregate(shards []*shardRun) *Aggregate {
	a := &Aggregate{
		Format:          FormatVersion,
		Sessions:        s.cfg.Sessions,
		Seed:            s.cfg.Seed,
		Scheme:          s.cfg.Scheme.Name,
		ProfileSessions: make(map[string]int, len(s.cfg.Profiles)),
	}
	for _, p := range s.plans {
		a.ProfileSessions[p.Profile]++
	}

	n := 0
	for _, sr := range shards {
		n += len(sr.metrics)
	}
	energy := stats.NewSample(n)
	radio := stats.NewSample(n)
	drops := stats.NewSample(n)
	rebuf := stats.NewSample(n)
	startup := stats.NewSample(n)
	dramKB := stats.NewSample(n)
	maxKB := 0.0
	for _, sr := range shards {
		for i := range sr.metrics {
			m := &sr.metrics[i]
			frames := float64(m.Frames)
			kb := float64(m.DramBytes) / frames / 1024
			energy.Add(m.EnergyJ)
			radio.Add(m.RadioJ)
			drops.Add(float64(m.Drops) / frames)
			rebuf.Add(float64(m.Rebuffers) / frames)
			startup.Add(float64(m.StartupNs) / 1e6)
			dramKB.Add(kb)
			if kb > maxKB {
				maxKB = kb
			}
			a.Completed++
			a.TotalFrames += int64(m.Frames)
			a.TotalDrops += m.Drops
			a.TotalRebuffers += m.Rebuffers
			a.TotalEnergyJ += m.EnergyJ
		}
		a.Quarantine = append(a.Quarantine, sr.quar...)
	}
	a.Quarantined = len(a.Quarantine)
	a.EnergyJ = energy.Summarize()
	a.RadioJ = radio.Summarize()
	a.DropRate = drops.Summarize()
	a.RebufferRate = rebuf.Summarize()
	a.StartupMs = startup.Summarize()

	hi := 1.0
	for hi <= maxKB {
		hi *= 2
	}
	a.DramPerFrame = DramHistogram{HiKB: hi, Counts: make([]int64, dramHistBins)}
	if dramKB.Len() > 0 {
		h := stats.NewHistogram(0, hi, dramHistBins)
		for _, kb := range dramKB.Values() {
			h.Add(kb)
		}
		a.DramPerFrame.Counts = h.Counts
	}
	return a
}

// CanonicalJSON renders the aggregate as stable, indented JSON: map keys
// sorted, floats shortest-round-trip, no topology-dependent fields — the
// byte stream the kill/resume smokes md5-compare.
func (a *Aggregate) CanonicalJSON() ([]byte, error) {
	return json.MarshalIndent(a, "", "  ")
}

// String renders a compact human report.
func (a *Aggregate) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "fleet: %d sessions (%s, seed %d): %d completed, %d quarantined\n",
		a.Sessions, a.Scheme, a.Seed, a.Completed, a.Quarantined)
	fmt.Fprintf(&sb, "  energy/user: mean %.3f J  p50 %.3f  p90 %.3f  p99 %.3f\n",
		a.EnergyJ.Mean, a.EnergyJ.P50, a.EnergyJ.P90, a.EnergyJ.P99)
	fmt.Fprintf(&sb, "  drops/frame: mean %.4f  p99 %.4f   rebuffers/frame: mean %.4f  p99 %.4f\n",
		a.DropRate.Mean, a.DropRate.P99, a.RebufferRate.Mean, a.RebufferRate.P99)
	fmt.Fprintf(&sb, "  startup: mean %.1f ms  p99 %.1f ms   dram/frame < %.0f KB over %d bins\n",
		a.StartupMs.Mean, a.StartupMs.P99, a.DramPerFrame.HiKB, len(a.DramPerFrame.Counts))
	fmt.Fprintf(&sb, "  totals: %d frames, %d drops, %d rebuffers, %.1f J\n",
		a.TotalFrames, a.TotalDrops, a.TotalRebuffers, a.TotalEnergyJ)
	for _, q := range a.Quarantine {
		fmt.Fprintf(&sb, "  quarantined session %d: %s\n", q.Session, q.Err)
	}
	return sb.String()
}
