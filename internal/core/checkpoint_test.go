package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"mach/internal/checkpoint"
	"mach/internal/delivery"
	"mach/internal/trace"
	"mach/internal/video"
)

// runResumed runs the (trace, scheme, cfg) pipeline with a cut at frame
// cutAt: step to the boundary, then resume.
func runResumed(t *testing.T, tr *trace.Trace, s Scheme, cfg Config, cutAt int) *Result {
	t.Helper()
	r1, err := NewRunner(tr, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !r1.Done() && r1.Frame() < cutAt {
		r1.StepFrame()
	}
	return resume(t, r1, tr, s, cfg)
}

// resume snapshots r1 at its frame boundary, restores the payload into a
// freshly built Runner, and finishes the run on the new one; r1 is left as
// it was. The round trip goes through the real container encode/decode so
// the on-disk format is what is proven equivalent, and the restored Runner
// must snapshot to the same bytes again, so no state is lost or reordered
// by serialization itself.
func resume(t *testing.T, r1 *Runner, tr *trace.Trace, s Scheme, cfg Config) *Result {
	t.Helper()
	payload, err := r1.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := checkpoint.Encode(&buf, r1.Fingerprint(), payload); err != nil {
		t.Fatal(err)
	}

	r2, err := NewRunner(tr, s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := checkpoint.DecodeBytes(buf.Bytes(), r2.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Restore(restored); err != nil {
		t.Fatal(err)
	}
	if r2.Frame() != r1.Frame() {
		t.Fatalf("restored cursor %d, want %d", r2.Frame(), r1.Frame())
	}
	again, err := r2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, payload) {
		t.Errorf("frame %d: snapshot changed across a restore round trip (%v)", r1.Frame(), diffFields(t, payload, again))
	}
	for !r2.Done() {
		r2.StepFrame()
	}
	res, err := r2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func canonicalJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := res.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeBitIdenticalGolden cuts the headline GAB run at several frame
// boundaries for every workload profile and requires the resumed result to
// match the committed golden corpus byte-for-byte — the same oracle the
// uninterrupted engine is held to.
func TestResumeBitIdenticalGolden(t *testing.T) {
	cfg := testConfig()
	for _, key := range WorkloadKeys() {
		t.Run(key, func(t *testing.T) {
			tr := testTrace(t, key, goldenFrames)
			want, err := os.ReadFile(filepath.Join("testdata", "golden", key+".json"))
			if err != nil {
				t.Fatalf("golden corpus: %v", err)
			}
			for _, cut := range []int{0, 1, 7, goldenFrames - 1, goldenFrames} {
				got := canonicalJSON(t, runResumed(t, tr, GAB(DefaultBatch), cfg, cut))
				if !bytes.Equal(got, want) {
					t.Errorf("cut at frame %d: resumed result drifted from golden corpus", cut)
				}
			}
		})
	}
}

// TestResumeBitIdenticalSchemes cuts every row of the step grid at every
// frame boundary, from before the first frame to after the last, and
// requires each snapshot to survive a restore round trip and each resumed
// run to match the uninterrupted one byte for byte. Per-frame sample
// collection is on, so the Sample state round-trips too.
func TestResumeBitIdenticalSchemes(t *testing.T) {
	tr := testTrace(t, "V5", goldenFrames)
	for _, row := range stepGrid() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			if !row.cfg.CollectFrameSamples {
				t.Fatal("grid row does not collect frame samples")
			}
			want := canonicalJSON(t, mustRun(t, tr, row.s, row.cfg))
			r, err := NewRunner(tr, row.s, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for {
				got := canonicalJSON(t, resume(t, r, tr, row.s, row.cfg))
				if !bytes.Equal(got, want) {
					t.Errorf("cut at frame %d: resumed run differs:\n%s", r.Frame(), firstDiffLine(want, got))
				}
				if r.Done() {
					break
				}
				r.StepFrame()
			}
		})
	}
}

// TestResumeBitIdenticalDelivery proves resume equivalence under the
// fault-injected delivery path: rebuffer counters, batch shrinks, the
// traffic generator and the recomputed radio schedule all have to line up.
func TestResumeBitIdenticalDelivery(t *testing.T) {
	for _, prof := range []string{"lte", "flaky"} {
		t.Run(prof, func(t *testing.T) {
			cfg := testConfig()
			d, err := delivery.ProfileByName(prof)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Delivery = d
			tr := testTrace(t, "V3", goldenFrames)
			want := canonicalJSON(t, mustRun(t, tr, GAB(DefaultBatch), cfg))
			for _, cut := range []int{2, 9, goldenFrames} {
				got := canonicalJSON(t, runResumed(t, tr, GAB(DefaultBatch), cfg, cut))
				if !bytes.Equal(got, want) {
					t.Errorf("cut at frame %d: resumed delivery run differs", cut)
				}
			}
		})
	}
}

// TestResumeBitIdenticalParallel checkpoints a run on one trace and
// resumes it on a freshly built copy, while a second session replays that
// copy in parallel, so the two fill its cold digest tables together; and
// the reverse, resuming a run checkpointed on the cold copy onto the warm
// one. The tables are not simulation state, so neither resume nor the
// parallel session may tell the difference. The ABR case cuts after the
// first rung switch, so the resumed half fills tables of quant shifts the
// first half never touched.
func TestResumeBitIdenticalParallel(t *testing.T) {
	cases := []struct {
		key     string
		frames  int
		cfg     Config
		cutAt   int
		coldFst bool // checkpoint on the cold copy, resume on the warm one
	}{
		{"V2", goldenFrames, testConfig(), 6, false},
		{"V2", goldenFrames, testConfig(), 6, true},
		{"V7", 48, abrConfig("buffer", 4e6, 0), 20, false},
		{"V7", 48, abrConfig("buffer", 4e6, 0), 20, true},
	}
	for _, c := range cases {
		sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: c.frames, Seed: 5, MabSize: 4, Quant: 8}
		warm, err := BuildTrace(c.key, sc)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := BuildTrace(c.key, sc)
		if err != nil {
			t.Fatal(err)
		}
		want := canonicalJSON(t, mustRun(t, warm, GAB(DefaultBatch), c.cfg))
		from, to := warm, cold
		if c.coldFst {
			from, to = cold, warm
		}
		r1, err := NewRunner(from, GAB(DefaultBatch), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for r1.Frame() < c.cutAt {
			r1.StepFrame()
		}
		payload, err := r1.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		r2, err := NewRunner(to, GAB(DefaultBatch), c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if r2.Fingerprint() != r1.Fingerprint() {
			t.Fatalf("%s: rebuilt trace changed the run fingerprint", c.key)
		}
		if err := r2.Restore(payload); err != nil {
			t.Fatal(err)
		}
		var other *Result
		var otherErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			other, otherErr = Run(to, GAB(DefaultBatch), c.cfg)
		}()
		for !r2.Done() {
			r2.StepFrame()
		}
		res, err := r2.Finish()
		if err != nil {
			t.Fatal(err)
		}
		<-done
		if otherErr != nil {
			t.Fatal(otherErr)
		}
		name := fmt.Sprintf("%s cut at %d (checkpointed cold: %v)", c.key, c.cutAt, c.coldFst)
		if got := canonicalJSON(t, res); !bytes.Equal(got, want) {
			t.Errorf("%s: resumed run differs:\n%s", name, firstDiffLine(want, got))
		}
		if got := canonicalJSON(t, other); !bytes.Equal(got, want) {
			t.Errorf("%s: parallel session differs:\n%s", name, firstDiffLine(want, got))
		}
	}
}

// TestSnapshotDeterministic requires identical snapshot bytes from two
// identical runs, on every row of the step grid and at every frame
// boundary. The restore round trip is checked by every resume (see resume).
func TestSnapshotDeterministic(t *testing.T) {
	tr := testTrace(t, "V5", goldenFrames)
	for _, row := range stepGrid() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			a, err := NewRunner(tr, row.s, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewRunner(tr, row.s, row.cfg)
			if err != nil {
				t.Fatal(err)
			}
			for {
				sa, err := a.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				sb, err := b.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(sa, sb) {
					t.Errorf("frame %d: identical runs snapshot to different bytes (%v)", a.Frame(), diffFields(t, sa, sb))
				}
				if a.Done() {
					break
				}
				a.StepFrame()
				b.StepFrame()
			}
		})
	}
}

// diffFields names the snapshot fields, down to the components' own, on
// which two payloads differ.
func diffFields(t *testing.T, a, b []byte) []string {
	t.Helper()
	var ma, mb map[string]json.RawMessage
	if err := json.Unmarshal(a, &ma); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &mb); err != nil {
		t.Fatal(err)
	}
	var out []string
	for k, v := range ma {
		if bytes.Equal(v, mb[k]) {
			continue
		}
		var ca, cb map[string]json.RawMessage
		if json.Unmarshal(v, &ca) != nil || json.Unmarshal(mb[k], &cb) != nil {
			out = append(out, k)
			continue
		}
		for ck, cv := range ca {
			if !bytes.Equal(cv, cb[ck]) {
				out = append(out, k+"."+ck)
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestSaveLoadCheckpoint exercises the file path end to end, including the
// fingerprint guard against resuming a checkpoint into a different run.
func TestSaveLoadCheckpoint(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, "V1", goldenFrames)
	want := canonicalJSON(t, mustRun(t, tr, GAB(DefaultBatch), cfg))

	r, err := NewRunner(tr, GAB(DefaultBatch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r.Frame() < 5 {
		r.StepFrame()
	}
	path := filepath.Join(t.TempDir(), "run.mckp")
	if err := r.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	r2, err := LoadCheckpoint(path, tr, GAB(DefaultBatch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !r2.Done() {
		r2.StepFrame()
	}
	res, err := r2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalJSON(t, res); !bytes.Equal(got, want) {
		t.Error("file-restored run differs from uninterrupted run")
	}

	// Same checkpoint against a different scheme: rejected by fingerprint.
	if _, err := LoadCheckpoint(path, tr, Baseline(), cfg); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("cross-scheme resume: want ErrCorrupt, got %v", err)
	}
	// And against a different trace.
	other := testTrace(t, "V2", goldenFrames)
	if _, err := LoadCheckpoint(path, other, GAB(DefaultBatch), cfg); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("cross-trace resume: want ErrCorrupt, got %v", err)
	}
}

// TestLoadCheckpointCorrupt flips and truncates real checkpoint files and
// requires a clean error — never a panic — from the load path.
func TestLoadCheckpointCorrupt(t *testing.T) {
	cfg := testConfig()
	tr := testTrace(t, "V1", goldenFrames)
	r, err := NewRunner(tr, GAB(DefaultBatch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r.Frame() < 5 {
		r.StepFrame()
	}
	path := filepath.Join(t.TempDir(), "run.mckp")
	if err := r.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mut []byte) {
		p := filepath.Join(t.TempDir(), name+".mckp")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p, tr, GAB(DefaultBatch), cfg); !errors.Is(err, checkpoint.ErrCorrupt) {
			t.Errorf("%s: want ErrCorrupt, got %v", name, err)
		}
	}
	// A checkpoint written before digest records carried their pointers:
	// restoring it would resume into different DRAM traffic, so the
	// container version rejects it.
	v1 := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(v1[4:8], 1)
	check("version-1", v1)
	check("truncated-header", raw[:16])
	check("truncated-payload", raw[:len(raw)/2])
	check("empty", nil)
	for _, off := range []int{0, 5, 10, 26, 30, 40, len(raw) / 2, len(raw) - 1} {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x40
		check(fmt.Sprintf("bitflip-%d", off), mut)
	}
}

// TestRestoreRejectsSemanticCorruption mutates decoded payloads in ways the
// container CRC cannot see (the attacker rewrites the CRC too) and requires
// the structural validation in Restore to reject each one.
func TestRestoreRejectsSemanticCorruption(t *testing.T) {
	cfg := testConfig()
	cfg.CollectFrameSamples = true
	tr := testTrace(t, "V1", goldenFrames)
	r, err := NewRunner(tr, GAB(DefaultBatch), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for r.Frame() < 5 {
		r.StepFrame()
	}
	payload, err := r.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	mutate := func(name string, f func(m map[string]json.RawMessage)) {
		t.Run(name, func(t *testing.T) {
			var m map[string]json.RawMessage
			if err := json.Unmarshal(payload, &m); err != nil {
				t.Fatal(err)
			}
			f(m)
			mut, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := NewRunner(tr, GAB(DefaultBatch), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Restore(mut); err == nil {
				t.Error("semantically corrupt payload accepted")
			}
		})
	}
	set := func(m map[string]json.RawMessage, k, v string) { m[k] = json.RawMessage(v) }

	mutate("frame-past-end", func(m map[string]json.RawMessage) {
		set(m, "Frame", fmt.Sprint(goldenFrames+1))
		set(m, "BatchEnd", fmt.Sprint(goldenFrames+1))
	})
	mutate("frame-above-batch-end", func(m map[string]json.RawMessage) { set(m, "BatchEnd", "1") })
	mutate("negative-batch-idx", func(m map[string]json.RawMessage) { set(m, "BatchIdx", "-1") })
	mutate("negative-clock", func(m map[string]json.RawMessage) { set(m, "Now", "-5") })
	mutate("insane-clock", func(m map[string]json.RawMessage) { set(m, "Now", "9000000000000000000") })
	mutate("traffic-after-now", func(m map[string]json.RawMessage) { set(m, "TrafficFrom", "9000000000000000") })
	mutate("release-count", func(m map[string]json.RawMessage) { set(m, "Releases", "[1,2]") })
	mutate("sample-count", func(m map[string]json.RawMessage) { set(m, "FrameTimes", "[0.5]") })
	mutate("drop-samples", func(m map[string]json.RawMessage) { delete(m, "FrameTimes") })
	mutate("negative-drops", func(m map[string]json.RawMessage) { set(m, "Drops", "-1") })
	mutate("bad-max-displayed", func(m map[string]json.RawMessage) { set(m, "MaxDisplayed", "-2") })
	mutate("garbage", func(m map[string]json.RawMessage) { set(m, "Pool", `"zzz"`) })

	mutate("free-of-unheld-slot", func(m map[string]json.RawMessage) {
		set(m, "Frees", `[{"At":1,"Slot":4096}]`)
	})
	mutate("layout-records-shape", func(m map[string]json.RawMessage) {
		var layouts []map[string]json.RawMessage
		if err := json.Unmarshal(m["Layouts"], &layouts); err != nil || len(layouts) == 0 {
			t.Skip("no layouts in snapshot")
		}
		set(layouts[0], "Records", "[]")
		b, err := json.Marshal(layouts)
		if err != nil {
			t.Fatal(err)
		}
		m["Layouts"] = b
	})
	mutate("duplicate-layout", func(m map[string]json.RawMessage) {
		var layouts []json.RawMessage
		if err := json.Unmarshal(m["Layouts"], &layouts); err != nil || len(layouts) == 0 {
			t.Skip("no layouts in snapshot")
		}
		layouts = append(layouts, layouts[0])
		b, err := json.Marshal(layouts)
		if err != nil {
			t.Fatal(err)
		}
		m["Layouts"] = b
	})
	mutate("oversized-mach-history", func(m map[string]json.RawMessage) {
		var ms map[string]json.RawMessage
		if err := json.Unmarshal(m["Mach"], &ms); err != nil {
			t.Fatal(err)
		}
		var hist []json.RawMessage
		if err := json.Unmarshal(ms["History"], &hist); err != nil || len(hist) == 0 {
			t.Skip("no MACH history in snapshot")
		}
		for i := 0; i < 64; i++ {
			hist = append(hist, hist[0])
		}
		b, err := json.Marshal(hist)
		if err != nil {
			t.Fatal(err)
		}
		ms["History"] = b
		b, err = json.Marshal(ms)
		if err != nil {
			t.Fatal(err)
		}
		m["Mach"] = b
	})
}

// FuzzCheckpointLoad feeds arbitrary bytes through the full untrusted-input
// path — container decode, then structural restore, then (when accepted)
// the rest of the run — and requires that nothing ever panics. Valid blobs
// seed the corpus so mutation explores near-valid states, and the traffic
// generator is disabled so a mutated clock cannot stretch one iteration
// into minutes.
func FuzzCheckpointLoad(f *testing.F) {
	cfg := testConfig()
	cfg.Traffic.BytesPerSecond = 0
	sc := video.StreamConfig{Width: 64, Height: 48, NumFrames: 4, Seed: 5, MabSize: 4, Quant: 8}
	tr, err := BuildTrace("V1", sc)
	if err != nil {
		f.Fatal(err)
	}
	s := GAB(DefaultBatch)
	for _, cut := range []int{0, 2, len(tr.Frames)} {
		r, err := NewRunner(tr, s, cfg)
		if err != nil {
			f.Fatal(err)
		}
		for r.Frame() < cut {
			r.StepFrame()
		}
		payload, err := r.Snapshot()
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := checkpoint.Encode(&buf, r.Fingerprint(), payload); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes()) // container path
		f.Add(payload)     // raw payload path (bypasses the CRC gate)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewRunner(tr, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		payload := data
		if p, err := checkpoint.DecodeBytes(data, r.Fingerprint()); err == nil {
			payload = p
		}
		if err := r.Restore(payload); err != nil {
			return
		}
		for !r.Done() {
			r.StepFrame()
		}
		if _, err := r.Finish(); err != nil {
			t.Fatalf("Finish after accepted restore: %v", err)
		}
	})
}
