package delivery

import (
	"fmt"
	"math"

	"mach/internal/hashes"
	"mach/internal/sim"
)

// Bottleneck models a shared last-mile link: our player competes with
// Sessions-1 background sessions for the configured bandwidth, each quantum
// of link time split by weighted fair share among whoever is active in it.
// Background activity is a pure hash of (seed, quantum index, session
// index), not a sequential RNG, so the schedule is deterministic, allows
// random access into any quantum, and cannot depend on the order sessions
// are examined in — the session-permutation determinism the property tests
// pin down.
//
// The zero value (Sessions 0) disables the model; so does Sessions 1 (our
// session alone on the link), which must keep Plan bit-identical to the
// uncontended path.
type Bottleneck struct {
	// Sessions is the total session count on the link, including ours.
	// 0 and 1 both mean an uncontended link.
	Sessions int
	// Weight is our session's fair-share weight; background sessions each
	// weigh 1. 0 selects 1 (equal share).
	Weight float64
	// ActiveProb is the probability a background session is active in any
	// given quantum. 0 selects 0.7.
	ActiveProb float64
	// Quantum is the fair-share scheduling granularity. 0 selects 50 ms.
	Quantum sim.Time
	// Seed drives the background-activity hash. Independent of Config.Seed
	// so contention can be varied while holding the loss/stall draws fixed.
	Seed int64
}

// MaxBottleneckSessions caps the per-quantum activity scan; with
// maxTransferQuanta it bounds the work one transfer can cost, so hostile
// configurations cannot make planning crawl. Exported so callers that derive
// a cell population (the fleet supervisor) can clamp to the same cap instead
// of tripping Validate.
const MaxBottleneckSessions = 16

// Defaults applied by normalize.
const (
	defaultBottleneckWeight = 1.0
	defaultActiveProb       = 0.7
	defaultQuantum          = 50 * sim.Millisecond

	// maxTransferQuanta bounds the quantum walk of one transfer; past it
	// the remainder completes at the expected average share in closed
	// form (still deterministic, recorded in ContentionStats.Capped).
	maxTransferQuanta = 4096
)

// Enabled reports whether the bottleneck actually contends: two or more
// sessions on the link.
func (b Bottleneck) Enabled() bool { return b.Sessions > 1 }

// normalize fills in the zero-value defaults.
func (b Bottleneck) normalize() Bottleneck {
	if b.Weight == 0 {
		b.Weight = defaultBottleneckWeight
	}
	if b.ActiveProb == 0 {
		b.ActiveProb = defaultActiveProb
	}
	if b.Quantum == 0 {
		b.Quantum = defaultQuantum
	}
	return b
}

// Validate reports malformed bottleneck configurations. The disabled zero
// value is always valid.
func (b Bottleneck) Validate() error {
	if !b.Enabled() {
		return nil
	}
	n := b.normalize()
	switch {
	case b.Sessions > MaxBottleneckSessions:
		return fmt.Errorf("delivery: bottleneck sessions %d over the %d cap", b.Sessions, MaxBottleneckSessions)
	case math.IsNaN(n.Weight) || n.Weight < 0.0625 || n.Weight > 16:
		return fmt.Errorf("delivery: bottleneck weight %g outside [1/16,16]", n.Weight)
	case math.IsNaN(n.ActiveProb) || n.ActiveProb < 0 || n.ActiveProb > 1:
		return fmt.Errorf("delivery: bottleneck active probability %g outside [0,1]", n.ActiveProb)
	case n.Quantum < sim.Millisecond || n.Quantum > sim.Second:
		return fmt.Errorf("delivery: bottleneck quantum %v outside [1ms,1s]", n.Quantum)
	}
	return nil
}

// ContentionStats aggregates what the bottleneck did to a schedule.
type ContentionStats struct {
	// Sessions echoes the configured session count.
	Sessions int
	// Quanta is how many scheduling quanta the transfer walks touched;
	// ContendedQuanta is how many of those had at least one background
	// session active (our share below the full link).
	Quanta          int64
	ContendedQuanta int64
	// CappedTransfers counts transfers that exceeded the quantum-walk
	// bound and finished at the expected average share in closed form.
	CappedTransfers int64
}

// activeSessions returns how many background sessions are active in the
// given quantum: session s is active iff hash(seed, quantum, s) clears the
// activity threshold. A pure function of its arguments — evaluation order
// cannot matter.
func (b Bottleneck) activeSessions(quantum int64) int {
	if b.ActiveProb >= 1 {
		return b.Sessions - 1
	}
	threshold := uint64(b.ActiveProb * float64(math.MaxUint64))
	n := 0
	for s := 1; s < b.Sessions; s++ {
		h := hashes.SplitMix64(hashes.SplitMix64(uint64(b.Seed)^uint64(quantum)*0x9e3779b97f4a7c15) + uint64(s))
		if h < threshold {
			n++
		}
	}
	return n
}

// shareAt returns our session's bandwidth share (bytes/s) in the given
// quantum: the weighted fair share of the link among the active sessions.
// Every session is backlogged in this model, so the share equals the
// weighted max-min (water-filling) allocation for our index — a property
// test pins the equivalence against a general water-filling oracle.
func (b Bottleneck) shareAt(bw float64, quantum int64) (share float64, contended bool) {
	nAct := b.activeSessions(quantum)
	if nAct == 0 {
		return bw, false
	}
	return bw * b.Weight / (b.Weight + float64(nAct)), true
}

// transferTime returns the wall time to move `bytes` over the contended
// link starting at `start`, walking scheduling quanta and advancing by our
// fair share in each. cs, when non-nil, accumulates contention counters.
// The walk is bounded: past maxTransferQuanta the remainder completes at
// the expected average share in closed form, and the result never exceeds
// maxTransfer (the same clamp the uncontended path applies).
func (b Bottleneck) transferTime(bw float64, start sim.Time, bytes int64, cs *ContentionStats) sim.Time {
	if bytes <= 0 {
		return 0
	}
	if start < 0 {
		start = 0
	}
	remaining := float64(bytes)
	t := start
	var dur sim.Time
	for i := 0; i < maxTransferQuanta; i++ {
		qi := int64(t / b.Quantum)
		share, contended := b.shareAt(bw, qi)
		if cs != nil {
			cs.Quanta++
			if contended {
				cs.ContendedQuanta++
			}
		}
		room := (sim.Time(qi)+1)*b.Quantum - t
		capacity := share * room.Seconds()
		if remaining <= capacity {
			dur += sim.FromSeconds(remaining / share)
			if dur < 0 || dur > maxTransfer {
				return maxTransfer
			}
			return dur
		}
		remaining -= capacity
		dur += room
		t += room
		if dur > maxTransfer {
			return maxTransfer
		}
	}
	if cs != nil {
		cs.CappedTransfers++
	}
	avg := bw * b.Weight / (b.Weight + float64(b.Sessions-1)*b.ActiveProb)
	dur += sim.FromSeconds(remaining / avg)
	if dur < 0 || dur > maxTransfer {
		dur = maxTransfer
	}
	return dur
}
