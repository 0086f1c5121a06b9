package fleet

import (
	"fmt"
	"math"

	"mach/internal/core"
	"mach/internal/hashes"
	"mach/internal/sim"
	"mach/internal/trace"
)

// SessionMetrics is the per-session projection the aggregate folds: flat,
// JSON-stable (integer times in nanoseconds, shortest-round-trip floats),
// and a pure function of the session's plan.
type SessionMetrics struct {
	Session       int     `json:"session"`
	Profile       string  `json:"profile"`
	Frames        int     `json:"frames"`
	EnergyJ       float64 `json:"energy_j"`
	RadioJ        float64 `json:"radio_j"`
	Drops         int64   `json:"drops"`
	Rebuffers     int64   `json:"rebuffers"`
	RebufferNs    int64   `json:"rebuffer_ns"`
	StartupNs     int64   `json:"startup_ns"`
	WallNs        int64   `json:"wall_ns"`
	DramBytes     int64   `json:"dram_bytes"`
	MachMatchRate float64 `json:"mach_match_rate"`
}

// Hooks intercept session execution; the zero value is a no-op. Production
// runs leave them empty — they exist for fault injection (Injector) and
// tests.
type Hooks struct {
	// SessionStart runs before a session is built. An error (or a panic)
	// quarantines the session.
	SessionStart func(session int) error
}

// Injector builds the seeded fault-injection hook the robustness smokes
// drive: deterministic per-session panics.
type Injector struct {
	// PanicRate is the probability a session's start hook panics; the draw
	// is a pure hash of (PanicSeed, session), so the quarantined set is
	// identical under any shard/worker topology.
	PanicRate float64
	// PanicSeed seeds the panic draw.
	PanicSeed int64
}

// Hooks returns the injection hooks; a zero PanicRate injects nothing and a
// PanicRate of 1 or more panics every session.
func (inj Injector) Hooks() Hooks {
	all := inj.PanicRate >= 1
	var threshold uint64
	if !all { // at 1, PanicRate*MaxUint64 is 2^64, out of uint64's range
		threshold = uint64(inj.PanicRate * float64(math.MaxUint64))
	}
	return Hooks{
		SessionStart: func(session int) error {
			h := hashes.SplitMix64(hashes.SplitMix64(uint64(inj.PanicSeed)) ^ uint64(session)*0x9e3779b97f4a7c15)
			if all || h < threshold {
				panic(fmt.Sprintf("fleet: injected panic in session %d", session))
			}
			return nil
		},
	}
}

// sessionConfig derives one session's platform config from the fleet
// template: per-session delivery seed and bandwidth scale, and the cell's
// shared bottleneck when churn windows overlap.
func (c Config) sessionConfig(p Plan) core.Config {
	cfg := c.Platform
	if cfg.Delivery.Enabled {
		cfg.Delivery.Seed = p.Seed
		cfg.Delivery.BandwidthBps *= p.BandwidthScale
		if p.Contenders > 1 {
			cfg.Delivery.Bottleneck.Sessions = p.Contenders
			cfg.Delivery.Bottleneck.Seed = c.cellSeed(p.Cell)
		}
	}
	return cfg
}

// runSession runs one viewer session and projects its Result onto the
// metrics the aggregate folds.
func runSession(tr *trace.Trace, s core.Scheme, cfg core.Config) (SessionMetrics, error) {
	res, err := core.Run(tr, s, cfg)
	if err != nil {
		return SessionMetrics{}, err
	}
	return SessionMetrics{
		Profile:       res.Workload,
		Frames:        res.Frames,
		EnergyJ:       res.TotalEnergy(),
		RadioJ:        float64(res.Radio.TotalEnergy()),
		Drops:         res.Drops,
		Rebuffers:     res.Rebuffers,
		RebufferNs:    int64(res.RebufferTime / sim.Nanosecond),
		StartupNs:     int64(res.StartupDelay / sim.Nanosecond),
		WallNs:        int64(res.WallTime / sim.Nanosecond),
		DramBytes:     res.Mem.Accesses() * int64(cfg.DRAM.LineBytes),
		MachMatchRate: res.Mach.MatchRate(),
	}, nil
}
