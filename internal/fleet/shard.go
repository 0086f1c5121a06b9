package fleet

import (
	"encoding/json"
	"fmt"
	"math"
	"path/filepath"

	"mach/internal/checkpoint"
)

// maxQuarantineErr caps the recorded error text per quarantined session, so
// a pathological panic message cannot bloat manifests or the aggregate.
const maxQuarantineErr = 256

// QuarantineRecord is one session that failed (error or recovered panic)
// and was excluded from the population instead of taking down its shard.
type QuarantineRecord struct {
	Session int    `json:"session"`
	Err     string `json:"err"`
}

// shardState is the serialized form of a shard at a chunk boundary: the
// commit cursor plus every committed session outcome, in session order.
type shardState struct {
	Format      int                `json:"format"`
	Shard       int                `json:"shard"`
	Lo          int                `json:"lo"`
	Hi          int                `json:"hi"`
	Next        int                `json:"next"`
	Metrics     []SessionMetrics   `json:"metrics"`
	Quarantined []QuarantineRecord `json:"quarantined,omitempty"`
}

// shardRun is one shard's live state: the contiguous session range it owns,
// the commit cursor, and the outcomes committed so far. Chunks run over the
// worker pool; commits happen serially in session order, so the state (and
// the manifest written from it) never depends on scheduling.
type shardRun struct {
	shard, lo, hi int
	plans         []Plan // full fleet plan slice, immutable, shared

	next    int
	metrics []SessionMetrics
	quar    []QuarantineRecord
}

// newShardRun returns a fresh shard positioned at the start of its range.
func newShardRun(shard, lo, hi int, plans []Plan) *shardRun {
	return &shardRun{shard: shard, lo: lo, hi: hi, plans: plans, next: lo}
}

// done reports whether every session of the range has been committed.
func (s *shardRun) done() bool { return s.next >= s.hi }

// Snapshot captures the shard at a chunk boundary.
func (s *shardRun) Snapshot() shardState {
	st := shardState{
		Format: FormatVersion,
		Shard:  s.shard,
		Lo:     s.lo,
		Hi:     s.hi,
		Next:   s.next,
	}
	st.Metrics = append([]SessionMetrics(nil), s.metrics...)
	st.Quarantined = append([]QuarantineRecord(nil), s.quar...)
	return st
}

// Restore overwrites the shard's state from a snapshot, validating every
// structural invariant the commit loop relies on — the payload may come from
// an untrusted file. On error the shard is unchanged.
func (s *shardRun) Restore(st shardState) error {
	if st.Format != FormatVersion {
		return fmt.Errorf("fleet: manifest format %d, want %d", st.Format, FormatVersion)
	}
	if st.Shard != s.shard || st.Lo != s.lo || st.Hi != s.hi {
		return fmt.Errorf("fleet: manifest for shard %d [%d,%d), this shard is %d [%d,%d)",
			st.Shard, st.Lo, st.Hi, s.shard, s.lo, s.hi)
	}
	if st.Next < s.lo || st.Next > s.hi {
		return fmt.Errorf("fleet: manifest cursor %d outside [%d,%d]", st.Next, s.lo, s.hi)
	}
	if len(st.Metrics) > s.hi-s.lo || len(st.Quarantined) > s.hi-s.lo {
		return fmt.Errorf("fleet: %d metrics + %d quarantined exceed shard range of %d sessions",
			len(st.Metrics), len(st.Quarantined), s.hi-s.lo)
	}
	// Committed outcomes must tile [lo, next) exactly: metrics and
	// quarantine records each strictly increasing by session, their merge
	// contiguous with no gap, overlap, or stray index.
	mi, qi := 0, 0
	for want := s.lo; want < st.Next; want++ {
		switch {
		case mi < len(st.Metrics) && st.Metrics[mi].Session == want:
			if err := validateMetrics(&st.Metrics[mi], s.plans); err != nil {
				return err
			}
			mi++
		case qi < len(st.Quarantined) && st.Quarantined[qi].Session == want:
			q := &st.Quarantined[qi]
			if q.Err == "" || len(q.Err) > maxQuarantineErr {
				return fmt.Errorf("fleet: quarantine record for session %d has a %d-byte error", q.Session, len(q.Err))
			}
			qi++
		default:
			return fmt.Errorf("fleet: manifest misses session %d below cursor %d", want, st.Next)
		}
	}
	if mi != len(st.Metrics) || qi != len(st.Quarantined) {
		return fmt.Errorf("fleet: manifest carries session outcomes at or above cursor %d", st.Next)
	}
	s.next = st.Next
	s.metrics = append([]SessionMetrics(nil), st.Metrics...)
	s.quar = append([]QuarantineRecord(nil), st.Quarantined...)
	return nil
}

// validateMetrics rejects out-of-range or non-finite session outcomes.
func validateMetrics(m *SessionMetrics, plans []Plan) error {
	if m.Session < 0 || m.Session >= len(plans) {
		return fmt.Errorf("fleet: metrics for session %d outside fleet of %d", m.Session, len(plans))
	}
	if want := plans[m.Session].Profile; m.Profile != want {
		return fmt.Errorf("fleet: session %d ran profile %q, plan says %q", m.Session, m.Profile, want)
	}
	if m.Frames < 1 {
		return fmt.Errorf("fleet: session %d decoded %d frames", m.Session, m.Frames)
	}
	if m.Drops < 0 || m.Rebuffers < 0 || m.RebufferNs < 0 || m.StartupNs < 0 ||
		m.WallNs < 0 || m.DramBytes < 0 {
		return fmt.Errorf("fleet: session %d carries a negative counter", m.Session)
	}
	for _, v := range [...]float64{m.EnergyJ, m.RadioJ} {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("fleet: session %d energy %g not finite and non-negative", m.Session, v)
		}
	}
	if math.IsNaN(m.MachMatchRate) || m.MachMatchRate < 0 || m.MachMatchRate > 1 {
		return fmt.Errorf("fleet: session %d match rate %g outside [0,1]", m.Session, m.MachMatchRate)
	}
	return nil
}

// truncateErr caps an error string for a quarantine record.
func truncateErr(s string) string {
	if s == "" {
		return "(empty error)"
	}
	if len(s) > maxQuarantineErr {
		return s[:maxQuarantineErr-3] + "..."
	}
	return s
}

// ManifestPath returns the manifest file of shard i under dir.
func ManifestPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%04d.mfst", shard))
}

// saveManifest atomically rewrites the shard's manifest.
func (s *shardRun) saveManifest(dir string, fp checkpoint.Fingerprint) error {
	payload, err := json.Marshal(s.Snapshot())
	if err != nil {
		return err
	}
	return checkpoint.Save(ManifestPath(dir, s.shard), fp, payload)
}

// restorePayload decodes and applies a manifest payload; every malformed
// input wraps checkpoint.ErrCorrupt.
func (s *shardRun) restorePayload(payload []byte) error {
	var st shardState
	if err := json.Unmarshal(payload, &st); err != nil {
		return fmt.Errorf("%w: manifest payload: %v", checkpoint.ErrCorrupt, err)
	}
	if err := s.Restore(st); err != nil {
		return fmt.Errorf("%w: %v", checkpoint.ErrCorrupt, err)
	}
	return nil
}

// loadManifest restores the shard from its manifest file. A missing file
// surfaces as fs.ErrNotExist (fresh start); a damaged or mismatched one
// wraps checkpoint.ErrCorrupt.
func (s *shardRun) loadManifest(dir string, fp checkpoint.Fingerprint) error {
	payload, err := checkpoint.Load(ManifestPath(dir, s.shard), fp)
	if err != nil {
		return err
	}
	return s.restorePayload(payload)
}

// runChunk runs the next CheckpointEvery sessions over the pool and commits
// them in session order. Per-session failures (errors and recovered panics)
// are quarantined, never propagated.
func (s *shardRun) runChunk(sup *Supervisor, hook func(session int) error) {
	n := min(s.next+sup.cfg.CheckpointEvery, s.hi) - s.next
	base := s.next
	out := make([]SessionMetrics, n)
	errs := sup.pool.Map(n, func(k int) error {
		session := base + k
		if hook != nil {
			if err := hook(session); err != nil {
				return err
			}
		}
		p := s.plans[session]
		m, err := runSession(sup.traceFor(p), sup.cfg.Scheme, sup.cfg.sessionConfig(p))
		if err != nil {
			return err
		}
		m.Session = session
		out[k] = m
		return nil
	})
	for k, err := range errs {
		if err != nil {
			s.quar = append(s.quar, QuarantineRecord{Session: base + k, Err: truncateErr(err.Error())})
		} else {
			s.metrics = append(s.metrics, out[k])
		}
	}
	s.next += n
}
