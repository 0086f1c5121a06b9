package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"mach/internal/core"
	"mach/internal/energy"
	"mach/internal/fleet"
	"mach/internal/trace"
)

// defaultSeed is the seed the pinned digests were computed at.
const defaultSeed = 1

// pins are the canonical-result digests at the default seed: per workload
// and profile (a resumed session must equal the uninterrupted one) and one
// for the fleet probe's aggregate. Regenerate with `go test -run TestPinned
// -update` after a change that is meant to alter simulated results.
type pins struct {
	Seed     int64                        `json:"seed"`
	Sessions map[string]map[string]string `json:"sessions"`
	Fleet    string                       `json:"fleet"`
}

//go:embed digests.json
var pinnedJSON []byte

func loadPins() (pins, error) {
	var p pins
	if err := json.Unmarshal(pinnedJSON, &p); err != nil {
		return p, fmt.Errorf("digests.json: %w", err)
	}
	if p.Seed != defaultSeed {
		return p, fmt.Errorf("digests.json: pinned at seed %d, want %d", p.Seed, defaultSeed)
	}
	return p, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:16])
}

func resultDigest(res *core.Result) (string, error) {
	b, err := res.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

func aggregateDigest(agg *fleet.Aggregate) (string, error) {
	b, err := agg.CanonicalJSON()
	if err != nil {
		return "", err
	}
	return digest(b), nil
}

// checkSession reports why res is not a correct replay of tr, or nil. want
// is the digest res must have; empty skips that comparison.
func checkSession(tr *trace.Trace, res *core.Result, want string) error {
	if res.Dec.Frames != int64(len(tr.Frames)) {
		return fmt.Errorf("%s: decoded %d of %d frames", tr.Profile, res.Dec.Frames, len(tr.Frames))
	}
	if err := checkEnergy(res); err != nil {
		return fmt.Errorf("%s: %w", tr.Profile, err)
	}
	if want == "" {
		return nil
	}
	got, err := resultDigest(res)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("%s: result digest %s, want %s", tr.Profile, got, want)
	}
	return nil
}

// checkEnergy rebuilds the total from the ledgers each component is booked
// from, so a component that drifts from its source, or a source that
// drifts from the total, fails the op.
func checkEnergy(res *core.Result) error {
	type source struct {
		comp string
		j    float64
	}
	ld := res.Ledger
	sources := []source{
		{energy.CompVDBusy, float64(res.Dec.ActiveEnergy)},
		{energy.CompSleep, float64(ld.S1Energy + ld.S3Energy)},
		{energy.CompShortSlack, float64(ld.IdleEnergy)},
		{energy.CompTransition, float64(ld.TransEnergy)},
		{energy.CompMemActPre, float64(res.MemEnergy.ActPre)},
		{energy.CompMemBurst, float64(res.MemEnergy.Burst)},
		{energy.CompMemBackground, float64(res.MemEnergy.Background)},
		{energy.CompDC, float64(res.Disp.ActiveEnergy)},
		// The SRAM overhead has no ledger of its own outside the breakdown.
		{energy.CompMachOverhead, res.Energy.Get(energy.CompMachOverhead)},
	}
	for _, k := range res.Energy.Keys() {
		if k == energy.CompRadio {
			sources = append(sources, source{k, float64(res.Radio.TotalEnergy())})
		}
	}
	total := 0.0
	for _, s := range sources {
		if got := res.Energy.Get(s.comp); !near(got, s.j) {
			return fmt.Errorf("energy component %s is %g J, its ledger says %g J", s.comp, got, s.j)
		}
		total += s.j
	}
	if got := res.TotalEnergy(); !near(got, total) {
		return fmt.Errorf("energy components sum to %g J, total is %g J", total, got)
	}
	return nil
}

// near compares two energies to a relative 1e-9, far below any modelled
// quantity yet above float summation-order noise.
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// checkFleet reports why agg is not a clean run of plans, or nil. want is
// the digest agg must have; empty skips that comparison.
func checkFleet(agg *fleet.Aggregate, plans []fleet.Plan, want string) error {
	if agg.Quarantined != 0 || agg.Restarts != 0 {
		return fmt.Errorf("fleet: %d quarantined, %d restarts", agg.Quarantined, agg.Restarts)
	}
	frames := int64(0)
	for _, p := range plans {
		frames += int64(p.Frames)
	}
	if agg.Completed != len(plans) || agg.TotalFrames != frames {
		return fmt.Errorf("fleet: %d of %d sessions and %d of %d frames completed",
			agg.Completed, len(plans), agg.TotalFrames, frames)
	}
	if want == "" {
		return nil
	}
	got, err := aggregateDigest(agg)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("fleet: aggregate digest %s, want %s", got, want)
	}
	return nil
}
