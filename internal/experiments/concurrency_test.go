package experiments

import (
	"sync"
	"testing"

	"mach/internal/core"
	"mach/internal/trace"
	"mach/internal/video"
)

// TestTraceCacheConcurrent hammers the TraceCache — the one shared mutable
// structure in the experiment layer — from many goroutines so that
// `go test -race` (the CI smoke path) exercises its locking: concurrent
// Get on the same key, Get on distinct keys, and Drop racing both.
func TestTraceCacheConcurrent(t *testing.T) {
	tc := NewTraceCache()
	sc := video.StreamConfig{Width: 80, Height: 48, NumFrames: 4, Seed: 3, MabSize: 4, Quant: 8}
	keys := core.WorkloadKeys()[:3]

	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				key := keys[(worker+i)%len(keys)]
				tr, err := tc.Get(key, sc)
				if err != nil {
					t.Errorf("Get(%s): %v", key, err)
					return
				}
				if got := len(tr.Frames); got != sc.NumFrames {
					t.Errorf("Get(%s): %d frames, want %d", key, got, sc.NumFrames)
					return
				}
				if i%3 == 2 {
					tc.Drop(key, sc)
				}
			}
		}(worker)
	}
	wg.Wait()
}

// TestTraceCacheBuildsOnce releases several callers of one cold key at
// once: they must all get the same trace, built once, so the sweep cells
// fanning out over it share its digest tables too.
func TestTraceCacheBuildsOnce(t *testing.T) {
	tc := NewTraceCache()
	sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: 8, Seed: 3, MabSize: 4, Quant: 8}
	got := make([]*trace.Trace, 4)
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-release
			tr, err := tc.Get("V2", sc)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
		}()
	}
	close(release)
	wg.Wait()
	for i, tr := range got {
		if tr == nil || tr != got[0] {
			t.Fatalf("caller %d got trace %p, caller 0 got %p", i, tr, got[0])
		}
	}
}

// TestSchemesConcurrent runs independent pipeline simulations in parallel
// over a shared trace: core.Run mutates nothing of it but its digest
// tables, under their locks, and the race detector holds it to that.
func TestSchemesConcurrent(t *testing.T) {
	cfg := Quick()
	tc := NewTraceCache()
	tr, err := tc.Get(cfg.Videos[0], cfg.Stream)
	if err != nil {
		t.Fatal(err)
	}

	schemes := []core.Scheme{core.Baseline(), core.RaceToSleep(4), core.GAB(4)}
	var wg sync.WaitGroup
	for _, s := range schemes {
		wg.Add(1)
		go func(s core.Scheme) {
			defer wg.Done()
			res, err := core.Run(tr, s, cfg.Platform)
			if err != nil {
				t.Errorf("%s: %v", s.Name, err)
				return
			}
			if res.TotalEnergy() <= 0 {
				t.Errorf("%s: non-positive total energy", s.Name)
			}
		}(s)
	}
	wg.Wait()
}
