// Package mach is a full reproduction, in pure Go, of the system described
// in "Race-To-Sleep + Content Caching + Display Caching: A Recipe for
// Energy-efficient Video Streaming on Handhelds" (Zhang et al., MICRO-50,
// 2017): an end-to-end mobile video-streaming platform simulator with three
// energy optimizations —
//
//   - Race-to-Sleep: batched decoding plus decoder frequency boosting so the
//     accumulated slack amortizes deep-sleep power-state transitions;
//   - Content caching (MACH): a macroblock content cache that deduplicates
//     decoded mab/gab content on its way to the frame buffer;
//   - Display caching: a display cache plus MACH buffer in the display
//     controller that absorb the indirection MACH introduces.
//
// The package re-exports the library's public surface: workload synthesis
// (the 16 Table 1 videos), trace building, scheme construction, the pipeline
// runner, and the result types. Examples live in examples/, the experiment
// harness in bench_test.go and cmd/report.
//
// Quick start:
//
//	tr, _ := mach.BuildTrace("V1", mach.DefaultStreamConfig())
//	res, _ := mach.Run(tr, mach.GAB(8), mach.DefaultConfig())
//	fmt.Println(res)
package mach

import (
	"mach/internal/abr"
	"mach/internal/checkpoint"
	"mach/internal/core"
	"mach/internal/delivery"
	"mach/internal/trace"
	"mach/internal/video"
)

// Re-exported configuration and scheme types.
type (
	// Config is the full platform configuration (decoder, display, DRAM,
	// power states, MACH, SRAM overheads).
	Config = core.Config
	// Scheme is one design point (batch depth, racing, MACH mode,
	// display optimizations).
	Scheme = core.Scheme
	// MachMode selects content caching: off, mab-based, or gab-based.
	MachMode = core.MachMode
	// Result is a pipeline run's complete measurement.
	Result = core.Result
	// RegionCounts classifies frame times into the paper's Regions I-IV.
	RegionCounts = core.RegionCounts
	// StreamConfig controls workload synthesis (resolution, frames, seed).
	StreamConfig = video.StreamConfig
	// Profile describes one of the 16 Table 1 workloads.
	Profile = video.Profile
	// Trace is a decoded workload ready for replay.
	Trace = trace.Trace
	// DeliveryConfig is the network-delivery fault model (Config.Delivery):
	// bandwidth, latency jitter, loss/stall/outage injection, segment
	// retry policy, streaming-buffer depth, and the modem power model.
	DeliveryConfig = delivery.Config
	// DeliveryStats aggregates a run's delivery behaviour (Result.Net).
	DeliveryStats = delivery.Stats
	// ABRConfig is the adaptive-bitrate controller (Config.ABR): a bitrate
	// ladder plus a rung-selection policy, riding on the delivery model.
	ABRConfig = abr.Config
	// Ladder is a DASH-style bitrate ladder, lowest rung first.
	Ladder = abr.Ladder
	// Rung is one quality level of a Ladder.
	Rung = abr.Rung
	// ABRStats summarizes a run's adaptive-bitrate behaviour (Result.ABR).
	ABRStats = core.ABRStats
	// Bottleneck shares the delivery link with background sessions
	// (Config.Delivery.Bottleneck).
	Bottleneck = delivery.Bottleneck
	// ContentionStats aggregates shared-link behaviour (Result.Contention).
	ContentionStats = delivery.ContentionStats
	// Runner is the per-frame step machine behind Run; drive it directly
	// to checkpoint and resume long runs (see SaveCheckpoint /
	// LoadCheckpoint). A checkpoint holds the frame cursor, and a resume
	// replays the run to it.
	Runner = core.Runner
)

// ErrCorruptCheckpoint wraps every checkpoint validation failure — bad
// magic, version, fingerprint, CRC, or frame cursor — so callers can
// distinguish a damaged file from an I/O error with errors.Is.
var ErrCorruptCheckpoint = checkpoint.ErrCorrupt

// MACH modes.
const (
	MachOff = core.MachOff
	MachMAB = core.MachMAB
	MachGAB = core.MachGAB
)

// DefaultBatch is the batch depth of the paper's headline configuration.
const DefaultBatch = core.DefaultBatch

// Platform and workload constructors.
var (
	// DefaultConfig returns the Table 2 platform configuration.
	DefaultConfig = core.DefaultConfig
	// DefaultStreamConfig returns the default workload scale.
	DefaultStreamConfig = video.DefaultStreamConfig
	// Profiles returns the 16 Table 1 workload profiles.
	Profiles = video.Profiles
	// ProfileByKey looks up a workload by key (V1..V16).
	ProfileByKey = video.ProfileByKey
	// WorkloadKeys returns the 16 workload keys in Table 1 order.
	WorkloadKeys = core.WorkloadKeys
	// BuildTrace synthesizes a workload into a trace: the encoder's
	// reconstruction and decode work of every frame, with no decode pass.
	BuildTrace = core.BuildTrace

	// DeliveryByName maps a network profile name (lte, wifi, 3g, flaky)
	// to an enabled Config.Delivery.
	DeliveryByName = delivery.ProfileByName

	// LoadLadder reads a MACHLADDER bitrate-ladder manifest (wrapping
	// ErrBadManifest on damaged input); ABRPolicies resolves a
	// rung-selection policy by name.
	LoadLadder  = abr.LoadLadder
	ABRPolicies = abr.PolicyByName

	// Run replays a trace under a scheme.
	Run = core.Run
	// RunStandard runs all six Fig 11 schemes.
	RunStandard = core.RunStandard
	// NewRunner builds the per-frame step machine behind Run.
	NewRunner = core.NewRunner
	// LoadCheckpoint rebuilds a Runner from a checkpoint file written by
	// Runner.SaveCheckpoint; the file must match the (trace, scheme,
	// config) triple.
	LoadCheckpoint = core.LoadCheckpoint

	// Scheme constructors (the six bars of Fig 11 plus the §5 ablation).
	// SchemeByName resolves a CLI key ("gab", "rts", ...) to a scheme.
	SchemeByName     = core.SchemeByName
	AdaptiveBatching = core.AdaptiveBatching
	Baseline         = core.Baseline
	Batching         = core.Batching
	Racing           = core.Racing
	RaceToSleep      = core.RaceToSleep
	MAB              = core.MAB
	GAB              = core.GAB
	StandardSchemes  = core.StandardSchemes
)
