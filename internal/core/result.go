package core

import (
	"fmt"
	"strings"

	"mach/internal/cache"
	"mach/internal/decoder"
	"mach/internal/delivery"
	"mach/internal/display"
	"mach/internal/dram"
	"mach/internal/energy"
	"mach/internal/mach"
	"mach/internal/power"
	"mach/internal/sim"
	"mach/internal/stats"
)

// Result is everything one pipeline run measured.
type Result struct {
	Scheme   Scheme
	Workload string
	Frames   int
	Drops    int64

	// WallTime spans first decode start to last scan-out end.
	WallTime sim.Time

	// Energy is the nine-part Fig 11 split, in joules.
	Energy *stats.Breakdown

	// Decoder residency over the wall time.
	BusyTime  sim.Time
	IdleTime  sim.Time
	S1Time    sim.Time
	S3Time    sim.Time
	TransTime sim.Time

	Transitions int64

	// Per-frame decode times in seconds (Region analysis, Fig 2 CDFs).
	FrameTimes *stats.Sample

	// PoolHighWater is the peak number of simultaneously live frame
	// buffers (Fig 12a measures it against triple buffering).
	PoolHighWater int

	// Delivery/rebuffering measurements; all zero unless
	// Config.Delivery.Enabled (or the trace carries arrival metadata).
	// Rebuffers counts decoder stalls on a frame that had not arrived;
	// RebufferTime is the total slack those stalls spent (accounted under
	// the sleep policy like any other slack). BatchShrinks counts batch
	// boundaries where low streaming-buffer occupancy shrank the batch.
	// StartupDelay is how long the player held the first scan-out waiting
	// for the first segment; the playback deadline schedule starts after it.
	Rebuffers    int64
	RebufferTime sim.Time
	StartupDelay sim.Time
	BatchShrinks int64
	Net          delivery.Stats
	Radio        power.RadioStats

	// ABR summarizes the adaptive-bitrate behaviour; Contention the
	// shared-bottleneck link. Both nil unless the respective model ran,
	// so default results are unchanged by their existence.
	ABR        *ABRStats
	Contention *delivery.ContentionStats

	Mem       dram.Stats
	MemEnergy dram.Energy
	Dec       decoder.Stats
	DecCache  cache.Stats
	Disp      display.Stats
	Mach      mach.Stats
	Ledger    *power.Ledger
}

// ABRStats summarizes a run's adaptive-bitrate behaviour, both what the
// delivery planner decided per segment and what the pipeline applied per
// batch.
type ABRStats struct {
	// FinalRung is the rung applied when playback ended; Switches counts
	// rung changes taken at batch boundaries; RungFrames histograms
	// decoded frames by applied rung, lowest rung first.
	FinalRung  int     `json:"final_rung"`
	Switches   int64   `json:"switches"`
	RungFrames []int64 `json:"rung_frames"`
	// PlannedSwitches/SegmentsAtRung/MinRung/MaxRung mirror the delivery
	// planner's segment-level decisions (delivery.ABRStats).
	PlannedSwitches int64   `json:"planned_switches"`
	SegmentsAtRung  []int64 `json:"segments_at_rung"`
	MinRung         int     `json:"min_rung"`
	MaxRung         int     `json:"max_rung"`
}

// TotalEnergy returns the run's total energy in joules.
func (r *Result) TotalEnergy() float64 { return r.Energy.Total() }

// EnergyPerFrame returns joules per trace frame.
func (r *Result) EnergyPerFrame() float64 {
	if r.Frames == 0 {
		return 0
	}
	return r.TotalEnergy() / float64(r.Frames)
}

// DropRate returns dropped refreshes per frame.
func (r *Result) DropRate() float64 {
	if r.Frames == 0 {
		return 0
	}
	return float64(r.Drops) / float64(r.Frames)
}

// S3Residency returns the fraction of wall time the decoder spent in deep
// sleep (the paper's "in deep sleep ~60% of the time" headline).
func (r *Result) S3Residency() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.S3Time) / float64(r.WallTime)
}

// NormalizedTo returns this run's energy relative to a baseline run.
func (r *Result) NormalizedTo(base *Result) float64 {
	be := base.TotalEnergy()
	if be == 0 {
		return 0
	}
	return r.TotalEnergy() / be
}

// String renders a compact single-run report.
func (r *Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s: %d frames, %d drops (%.1f%%)\n",
		r.Scheme.Name, r.Workload, r.Frames, r.Drops, 100*r.DropRate())
	fmt.Fprintf(&sb, "  energy: %.2f mJ/frame  S3 residency %.1f%%  transitions %d\n",
		1e3*r.EnergyPerFrame(), 100*r.S3Residency(), r.Transitions)
	t := r.TotalEnergy()
	for _, k := range energy.Components() {
		v := r.Energy.Get(k)
		if t > 0 {
			fmt.Fprintf(&sb, "  %-15s %8.2f mJ (%5.1f%%)\n", k, 1e3*v, 100*v/t)
		}
	}
	if v := r.Energy.Get(energy.CompRadio); v > 0 && t > 0 {
		fmt.Fprintf(&sb, "  %-15s %8.2f mJ (%5.1f%%)\n", energy.CompRadio, 1e3*v, 100*v/t)
	}
	if r.Net.Segments > 0 {
		fmt.Fprintf(&sb, "  net: %d segments (%d KB), %d retries, %d stalls, %d abandoned; startup %.1fms, rebuffer %d/%.1fms, batch shrinks %d\n",
			r.Net.Segments, r.Net.Bytes/1024, r.Net.Retries, r.Net.Stalls, r.Net.Abandoned,
			r.StartupDelay.Milliseconds(), r.Rebuffers, r.RebufferTime.Milliseconds(), r.BatchShrinks)
	}
	if r.ABR != nil {
		fmt.Fprintf(&sb, "  abr: rungs %d-%d of %d, %d switches (%d planned), final rung %d\n",
			r.ABR.MinRung, r.ABR.MaxRung, len(r.ABR.RungFrames), r.ABR.Switches,
			r.ABR.PlannedSwitches, r.ABR.FinalRung)
	}
	if r.Contention != nil {
		fmt.Fprintf(&sb, "  link: %d sessions, %d/%d quanta contended\n",
			r.Contention.Sessions, r.Contention.ContendedQuanta, r.Contention.Quanta)
	}
	fmt.Fprintf(&sb, "  mem: %d accesses, row-hit %.1f%%  pool high-water %d buffers\n",
		r.Mem.Accesses(), 100*r.Mem.RowHitRate(), r.PoolHighWater)
	if r.Scheme.Mach != MachOff {
		fmt.Fprintf(&sb, "  mach: match %.1f%% (intra %d, inter %d), savings %.1f%%\n",
			100*r.Mach.MatchRate(), r.Mach.IntraMatches, r.Mach.InterMatches, 100*r.Mach.Savings())
	}
	return sb.String()
}

// RegionCounts classifies per-frame decode times into the paper's Regions
// I-IV (§2.2) for a frame period and power configuration: dropped frames,
// short-slack frames, S1-only frames, and S3-capable frames.
type RegionCounts struct {
	I, II, III, IV int
}

// Regions computes the Region I-IV classification of the run's frame times.
func (r *Result) Regions(period sim.Time, pcfg power.Config) RegionCounts {
	var rc RegionCounts
	if r.FrameTimes == nil {
		return rc
	}
	beS1 := pcfg.BreakEven(power.S1)
	beS3 := pcfg.BreakEven(power.S3)
	for _, sec := range r.FrameTimes.Values() {
		d := sim.FromSeconds(sec)
		slack := period - d
		switch {
		case slack < 0:
			rc.I++
		case slack < beS1:
			rc.II++
		case slack < beS3:
			rc.III++
		default:
			rc.IV++
		}
	}
	return rc
}
