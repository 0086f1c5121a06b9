package abr

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultLadderValid(t *testing.T) {
	l := DefaultLadder()
	if err := l.Validate(); err != nil {
		t.Fatalf("default ladder invalid: %v", err)
	}
	if l.Top() != len(l)-1 {
		t.Fatalf("Top() = %d, want %d", l.Top(), len(l)-1)
	}
	if got := l.Ratio(l.Top()); got != 1 {
		t.Fatalf("top-rung ratio = %g, want 1", got)
	}
	// Ratios ascend with the rungs and stay in (0,1].
	prev := 0.0
	for i := range l {
		r := l.Ratio(i)
		if !(r > prev && r <= 1) {
			t.Fatalf("ratio(%d) = %g not ascending in (0,1]", i, r)
		}
		prev = r
	}
}

func TestLadderValidateRejections(t *testing.T) {
	base := DefaultLadder()
	mut := func(f func(Ladder) Ladder) Ladder {
		l := append(Ladder(nil), base...)
		return f(l)
	}
	bad := map[string]Ladder{
		"empty": {},
		"over cap": mut(func(l Ladder) Ladder {
			for len(l) <= MaxRungs {
				r := l[len(l)-1]
				r.BitrateKbps *= 2
				l = append(l, r)
			}
			return l
		}),
		"zero bitrate":       mut(func(l Ladder) Ladder { l[0].BitrateKbps = 0; return l }),
		"cost scale zero":    mut(func(l Ladder) Ladder { l[0].CostScale = 0; return l }),
		"cost scale above 1": mut(func(l Ladder) Ladder { l[1].CostScale = 1.5; return l }),
		"cost scale nan":     mut(func(l Ladder) Ladder { l[1].CostScale = nan(); return l }),
		"quant shift -1":     mut(func(l Ladder) Ladder { l[0].QuantShift = -1; return l }),
		"quant shift 8":      mut(func(l Ladder) Ladder { l[0].QuantShift = 8; return l }),
		"bitrate not ascending": mut(func(l Ladder) Ladder {
			l[2].BitrateKbps = l[1].BitrateKbps
			return l
		}),
		"cost scale descending": mut(func(l Ladder) Ladder {
			l[2].CostScale = l[1].CostScale - 0.1
			return l
		}),
		"quant shift ascending": mut(func(l Ladder) Ladder {
			l[2].QuantShift = l[1].QuantShift + 1
			return l
		}),
		"top not native scale": mut(func(l Ladder) Ladder {
			for i := range l {
				l[i].CostScale = 0.9
			}
			return l
		}),
		"top not native shift": mut(func(l Ladder) Ladder {
			for i := range l {
				l[i].QuantShift = 1
			}
			return l
		}),
	}
	for name, l := range bad {
		err := l.Validate()
		if err == nil {
			t.Errorf("%s: invalid ladder accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: error %v does not wrap ErrBadManifest", name, err)
		}
	}
	// A one-rung native ladder is legal (fixed-quality with ABR machinery).
	one := Ladder{{BitrateKbps: 1000, CostScale: 1, QuantShift: 0}}
	if err := one.Validate(); err != nil {
		t.Errorf("single native rung rejected: %v", err)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

const goodManifest = `MACHLADDER v1
# typical mobile ladder
rung 400 0.40 4

rung 800 0.55 3
rung 1600 0.70 2
rung 3200 0.85 1
rung 6400 1.0 0
`

func TestParseLadder(t *testing.T) {
	l, err := ParseLadder([]byte(goodManifest))
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 5 {
		t.Fatalf("parsed %d rungs, want 5", len(l))
	}
	if l[0] != (Rung{BitrateKbps: 400, CostScale: 0.40, QuantShift: 4}) {
		t.Fatalf("rung 0 = %+v", l[0])
	}
	if l[4] != (Rung{BitrateKbps: 6400, CostScale: 1, QuantShift: 0}) {
		t.Fatalf("rung 4 = %+v", l[4])
	}
}

func TestParseLadderRejections(t *testing.T) {
	bad := map[string]string{
		"no header":        "rung 400 0.4 4\n",
		"wrong version":    "MACHLADDER v2\nrung 400 1 0\n",
		"empty":            "",
		"junk line":        "MACHLADDER v1\nstep 400 0.4 4\n",
		"short line":       "MACHLADDER v1\nrung 400 0.4\n",
		"long line":        "MACHLADDER v1\nrung 400 0.4 4 extra\n",
		"bad bitrate":      "MACHLADDER v1\nrung four 1 0\n",
		"bad scale":        "MACHLADDER v1\nrung 400 forty 0\n",
		"bad shift":        "MACHLADDER v1\nrung 400 1 four\n",
		"no rungs":         "MACHLADDER v1\n# just a comment\n",
		"invalid ladder":   "MACHLADDER v1\nrung 400 0.4 4\nrung 400 1 0\n",
		"top not native":   "MACHLADDER v1\nrung 400 0.4 4\n",
		"oversized input":  "MACHLADDER v1\n" + strings.Repeat("#", maxManifestBytes),
		"too many rungs":   manyRungManifest(MaxRungs + 1),
		"scale inf":        "MACHLADDER v1\nrung 400 Inf 4\n",
		"negative bitrate": "MACHLADDER v1\nrung -400 1 0\n",
	}
	// Each bad-field manifest is a valid single-rung ladder but for that
	// field, so only the field's own parse check can reject it, and its
	// error must quote the token. Without the check, a later field's parse
	// overwrites the error and the zero value fails validation instead.
	quotes := map[string]string{
		"bad bitrate": `"four"`,
		"bad scale":   `"forty"`,
		"bad shift":   `"four"`,
	}
	for name, m := range bad {
		_, err := ParseLadder([]byte(m))
		if err == nil {
			t.Errorf("%s: bad manifest accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: error %v does not wrap ErrBadManifest", name, err)
		}
		if q := quotes[name]; q != "" && !strings.Contains(err.Error(), q) {
			t.Errorf("%s: error %q does not quote the bad field %s", name, err, q)
		}
	}
	// Exactly MaxRungs is fine.
	if _, err := ParseLadder([]byte(manyRungManifest(MaxRungs))); err != nil {
		t.Errorf("%d-rung manifest rejected: %v", MaxRungs, err)
	}
}

// manyRungManifest builds a structurally valid manifest with n rungs; the
// last rung is always native quality.
func manyRungManifest(n int) string {
	var sb strings.Builder
	sb.WriteString("MACHLADDER v1\n")
	for i := 0; i < n; i++ {
		scale, shift := "0.5", 1
		if i == n-1 {
			scale, shift = "1", 0
		}
		fmt.Fprintf(&sb, "rung %d %s %d\n", 100*(i+1), scale, shift)
	}
	return sb.String()
}

func TestLoadLadder(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "ladder.txt")
	if err := os.WriteFile(good, []byte(goodManifest), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := LoadLadder(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 5 {
		t.Fatalf("loaded %d rungs, want 5", len(l))
	}

	if _, err := LoadLadder(filepath.Join(dir, "missing.txt")); err == nil {
		t.Error("missing file accepted")
	} else if errors.Is(err, ErrBadManifest) {
		t.Errorf("I/O error %v wrongly wraps ErrBadManifest", err)
	}

	huge := filepath.Join(dir, "huge.txt")
	if err := os.WriteFile(huge, make([]byte, maxManifestBytes+1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLadder(huge); !errors.Is(err, ErrBadManifest) {
		t.Errorf("oversized file: err = %v, want ErrBadManifest", err)
	}

	corrupt := filepath.Join(dir, "corrupt.txt")
	if err := os.WriteFile(corrupt, []byte("MACHLADDER v1\nrung x y z\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLadder(corrupt); !errors.Is(err, ErrBadManifest) {
		t.Errorf("corrupt file: err = %v, want ErrBadManifest", err)
	}
}
