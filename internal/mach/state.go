package mach

import (
	"fmt"
	"sort"
)

// This file is the Writeback engine's checkpoint surface (DESIGN.md
// "Checkpoint/Resume"). Snapshots are taken at frame boundaries only: the
// per-frame transients (current MACH, CO-MACH, coalescing fills, prehash
// slots) are dead between ProcessFrame calls and are deliberately not part
// of the state. What persists across frames — and therefore must round-trip
// bit-exactly — is the frozen MACH history, the accumulated statistics, and
// the measurement-only shadow stores.

// EntryState is the serializable mirror of one MACH entry.
type EntryState struct {
	Digest uint32
	Aux    uint16
	Ptr    uint64
	Origin int
	Valid  bool
	LRU    uint64
	Hits   uint32
}

// CacheState is the serializable mirror of one frozen MACH.
type CacheState struct {
	Entries []EntryState
	Tick    uint64
}

// ShadowEntry is one TrackCollisions fingerprint, keyed by content pointer.
type ShadowEntry struct {
	Ptr uint64
	FP  [16]byte
}

// State is the Writeback engine's full frame-boundary state.
type State struct {
	History []CacheState // newest first, mirrors Writeback.history
	Stats   Stats
	// Shadow holds the TrackCollisions fingerprints sorted by pointer so
	// identical engines snapshot to identical bytes; nil when disabled.
	Shadow []ShadowEntry
	// QuantShift is the ABR requantization depth in force at the boundary
	// (SetQuantShift); it persists across frames, so a resumed engine must
	// hash at the same depth the live one would.
	QuantShift int `json:",omitempty"`
}

func snapshotCache(c *digestCache) CacheState {
	st := CacheState{Entries: make([]EntryState, len(c.entries)), Tick: c.tick}
	for i, e := range c.entries {
		st.Entries[i] = EntryState{
			Digest: e.digest, Aux: e.aux, Ptr: e.ptr,
			Origin: e.origin, Valid: e.valid, LRU: e.lru, Hits: e.hits,
		}
	}
	return st
}

func (w *Writeback) restoreCache(st CacheState) (*digestCache, error) {
	cfg := w.cfg
	if len(st.Entries) != cfg.EntriesPerMACH {
		return nil, fmt.Errorf("mach: snapshot MACH has %d entries, config wants %d",
			len(st.Entries), cfg.EntriesPerMACH)
	}
	c := newDigestCachePolicy(cfg.EntriesPerMACH, cfg.Ways, cfg.Policy)
	for i, e := range st.Entries {
		c.entries[i] = machEntry{
			digest: e.Digest, aux: e.Aux, ptr: e.Ptr,
			origin: e.Origin, valid: e.Valid, lru: e.LRU, hits: e.Hits,
		}
	}
	c.tick = st.Tick
	return c, nil
}

// Snapshot returns the engine's frame-boundary state. It must not be called
// from inside ProcessFrame.
func (w *Writeback) Snapshot() State {
	st := State{Stats: w.stats, QuantShift: w.quantShift}
	if len(w.history) > 0 {
		st.History = make([]CacheState, len(w.history))
		for i, h := range w.history {
			st.History[i] = snapshotCache(h)
		}
	}
	if w.shadow != nil {
		st.Shadow = make([]ShadowEntry, len(w.shadow))
		i := 0
		for ptr, fp := range w.shadow {
			st.Shadow[i] = ShadowEntry{Ptr: ptr, FP: fp}
			i++
		}
		sort.Slice(st.Shadow, func(a, b int) bool { return st.Shadow[a].Ptr < st.Shadow[b].Ptr })
	}
	if w.stats.DigestMatches != nil {
		// The map is shared with st.Stats by the struct copy above; give the
		// snapshot its own so later frames don't mutate it.
		m := make(map[uint32]int64, len(w.stats.DigestMatches))
		for d, n := range w.stats.DigestMatches {
			m[d] = n
		}
		st.Stats.DigestMatches = m
	}
	return st
}

// Restore overwrites the engine's frame-boundary state from a snapshot taken
// on an identically configured engine. The state may come from an untrusted
// file, so every shape the classification loop indexes into is validated.
func (w *Writeback) Restore(st State) error {
	cfg := w.cfg
	if len(st.History) > cfg.NumMACHs {
		return fmt.Errorf("mach: snapshot has %d frozen MACHs, config allows %d",
			len(st.History), cfg.NumMACHs)
	}
	history := make([]*digestCache, 0, len(st.History))
	for _, hs := range st.History {
		h, err := w.restoreCache(hs)
		if err != nil {
			return err
		}
		history = append(history, h)
	}
	if (st.Stats.DigestMatches != nil) != cfg.TrackPopularity {
		return fmt.Errorf("mach: snapshot popularity tracking %v, config wants %v",
			st.Stats.DigestMatches != nil, cfg.TrackPopularity)
	}
	if (st.Shadow != nil) != cfg.TrackCollisions {
		return fmt.Errorf("mach: snapshot collision tracking %v, config wants %v",
			st.Shadow != nil, cfg.TrackCollisions)
	}
	if st.QuantShift < 0 || st.QuantShift > 7 {
		return fmt.Errorf("mach: snapshot quant shift %d outside [0,7]", st.QuantShift)
	}

	if len(history) == 0 {
		history = nil
	}
	w.history = history
	w.held.rebuild(history)
	w.stats = st.Stats
	if cfg.TrackPopularity {
		m := make(map[uint32]int64, len(st.Stats.DigestMatches))
		for d, n := range st.Stats.DigestMatches {
			m[d] = n
		}
		w.stats.DigestMatches = m
	}
	w.shadow = nil
	if cfg.TrackCollisions {
		w.shadow = make(map[uint64][16]byte, len(st.Shadow))
		for _, e := range st.Shadow {
			w.shadow[e.Ptr] = e.FP
		}
	}
	w.quantShift = st.QuantShift
	w.current = nil
	return nil
}
