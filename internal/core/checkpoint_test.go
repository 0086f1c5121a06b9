package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"mach/internal/checkpoint"
	"mach/internal/delivery"
	"mach/internal/mach"
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
// must snapshot to the same bytes again, so the replay stops at the cursor
// it was given.
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
		t.Errorf("frame %d: snapshot changed across a restore round trip: %s, then %s", r1.Frame(), payload, again)
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
// run to match the uninterrupted one byte for byte.
func TestResumeBitIdenticalSchemes(t *testing.T) {
	tr := testTrace(t, "V5", goldenFrames)
	for _, row := range stepGrid() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
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
		// The finished Result cannot tell how far Restore replayed: a runner
		// left short of the cut steps the rest of the way itself.
		if r2.Frame() != c.cutAt {
			t.Fatalf("%s: restored cursor %d, want %d", c.key, r2.Frame(), c.cutAt)
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

// TestSnapshotDeterministic steps two runners of every grid row in lockstep
// and requires identical snapshot bytes and identical in-memory state at
// every frame boundary. A restore replays the run to its cursor, so this
// determinism is what makes the restored runner the uninterrupted one; the
// state walk also reaches fields that never surface in a Result. Each row
// builds its own trace, so its first runner fills the cold digest tables
// and the second reads them: which engine hashed a frame must not show.
func TestSnapshotDeterministic(t *testing.T) {
	sc := video.StreamConfig{Width: 160, Height: 96, NumFrames: goldenFrames, Seed: 5, MabSize: 4, Quant: 8}
	for _, row := range stepGrid() {
		t.Run(row.name, func(t *testing.T) {
			t.Parallel()
			tr, err := BuildTrace("V5", sc)
			if err != nil {
				t.Fatal(err)
			}
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
					t.Errorf("frame %d: identical runs snapshot to different bytes: %s, %s", a.Frame(), sa, sb)
				}
				seen := map[[2]uintptr]bool{}
				if path, differ := stateDiff(reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem(), seen); differ {
					t.Fatalf("frame %d: identical runs differ at Runner%s", a.Frame(), path)
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

// hostDuration is the type of the host wall-clock counters (the MACH
// prehash timer): they measure this process, not the simulated run.
var hostDuration = reflect.TypeOf(time.Duration(0))

// scratchFields are the buffers every use overwrites before reading. The
// MACH engine hashes mabs through them, and over a shared digest table only
// the first engine to reach a frame hashes it, so two engines over one
// trace leave different bytes in them.
var scratchFields = map[reflect.Type]map[string]bool{
	reflect.TypeOf(mach.Writeback{}): {"mabBuf": true, "gabBuf": true},
}

// stateDiff walks a and b in step and reports the path of the first value
// at which they differ. Functions are skipped, since a hook closes over its
// own Runner, and so are host-time durations and scratch buffers. A pointer
// both sides share, or a pointer pair already walked, is equal; floats
// compare by bits.
func stateDiff(a, b reflect.Value, seen map[[2]uintptr]bool) (string, bool) {
	if a.Type() == hostDuration {
		return "", false
	}
	switch a.Kind() {
	case reflect.Func:
		return "", false
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return " (nil)", a.IsNil() != b.IsNil()
		}
		if a.Elem().Type() != b.Elem().Type() {
			return " (dynamic type)", true
		}
		return stateDiff(a.Elem(), b.Elem(), seen)
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return " (nil)", a.IsNil() != b.IsNil()
		}
		key := [2]uintptr{a.Pointer(), b.Pointer()}
		if key[0] == key[1] || seen[key] {
			return "", false
		}
		seen[key] = true
		return stateDiff(a.Elem(), b.Elem(), seen)
	case reflect.Struct:
		skip := scratchFields[a.Type()]
		for i := range a.NumField() {
			name := a.Type().Field(i).Name
			if skip[name] {
				continue
			}
			if path, differ := stateDiff(a.Field(i), b.Field(i), seen); differ {
				return "." + name + path, true
			}
		}
		return "", false
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf(" (length %d, %d)", a.Len(), b.Len()), true
		}
		if a.Pointer() == b.Pointer() {
			return "", false
		}
		fallthrough
	case reflect.Array:
		for i := range a.Len() {
			if path, differ := stateDiff(a.Index(i), b.Index(i), seen); differ {
				return fmt.Sprintf("[%d]%s", i, path), true
			}
		}
		return "", false
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return fmt.Sprintf(" (size %d, %d)", a.Len(), b.Len()), true
		}
		for it := a.MapRange(); it.Next(); {
			bv := b.MapIndex(it.Key())
			if !bv.IsValid() {
				return fmt.Sprintf("[%v] (missing)", it.Key()), true
			}
			if path, differ := stateDiff(it.Value(), bv, seen); differ {
				return fmt.Sprintf("[%v]%s", it.Key(), path), true
			}
		}
		return "", false
	}
	var equal bool
	switch {
	case a.Kind() == reflect.Bool:
		equal = a.Bool() == b.Bool()
	case a.Kind() == reflect.String:
		equal = a.String() == b.String()
	case a.CanInt():
		equal = a.Int() == b.Int()
	case a.CanUint():
		equal = a.Uint() == b.Uint()
	case a.CanFloat():
		equal = math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	default:
		return fmt.Sprintf(" (no comparison for kind %s)", a.Kind()), true
	}
	if equal {
		return "", false
	}
	return fmt.Sprintf(" = %v, %v", a, b), true
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
	if r2.Frame() != r.Frame() {
		t.Fatalf("loaded cursor %d, want %d", r2.Frame(), r.Frame())
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

// TestRestoreRejectsSemanticCorruption feeds Restore payloads the container
// CRC cannot catch (the attacker rewrites the CRC too) and requires each to
// be rejected; see checkRestoreRejects.
func TestRestoreRejectsSemanticCorruption(t *testing.T) {
	checkRestoreRejects(t, testTrace(t, "V1", goldenFrames), testConfig(), 5)
}

// checkRestoreRejects requires Restore to reject a cursor outside the
// trace, a cursor that is not an integer, a payload that is not JSON, and a
// valid cursor handed to a runner already stepped to frame stepped, where a
// replay on top of the runner's state would be silently wrong. A rejected
// payload must not move the runner.
func checkRestoreRejects(t *testing.T, tr *trace.Trace, cfg Config, stepped int) {
	t.Helper()
	cases := []struct {
		name    string
		payload string
		stepped int
	}{
		{"negative-frame", `{"Frame":-1}`, 0},
		{"frame-past-end", fmt.Sprintf(`{"Frame":%d}`, len(tr.Frames)+1), 0},
		{"non-integer-frame", `{"Frame":2.5}`, 0},
		{"string-frame", `{"Frame":"2"}`, 0},
		{"garbage", `zzz`, 0},
		{"stepped-runner", fmt.Sprintf(`{"Frame":%d}`, stepped), stepped},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r, err := NewRunner(tr, GAB(DefaultBatch), cfg)
			if err != nil {
				t.Fatal(err)
			}
			for r.Frame() < c.stepped {
				r.StepFrame()
			}
			if err := r.Restore([]byte(c.payload)); err == nil {
				t.Errorf("payload %s accepted by a runner at frame %d", c.payload, c.stepped)
			}
			if r.Frame() != c.stepped {
				t.Errorf("rejected restore moved the runner from frame %d to %d", c.stepped, r.Frame())
			}
		})
	}
}

// FuzzCheckpointLoad feeds arbitrary bytes through the full untrusted-input
// path — container decode, then cursor validation and replay, then (when
// accepted) the rest of the run — and requires that nothing ever panics.
// Valid blobs seed the corpus so mutation explores near-valid payloads.
func FuzzCheckpointLoad(f *testing.F) {
	cfg := testConfig()
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
