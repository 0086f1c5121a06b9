package experiments

import (
	"strings"
	"testing"

	"mach/internal/stats"
	"mach/internal/video"
)

// tinyConfig keeps experiment smoke tests fast: 2 workloads, short streams.
func tinyConfig() Config {
	c := Quick()
	c.Stream.NumFrames = 24
	c.Videos = c.Videos[:2]
	return c
}

func TestTraceCache(t *testing.T) {
	tc := NewTraceCache()
	sc := video.StreamConfig{Width: 32, Height: 32, NumFrames: 4, Seed: 1, MabSize: 4, Quant: 8}
	a, err := tc.Get("V1", sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := tc.Get("V1", sc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("cache should return the same trace")
	}
	tc.Drop("V1", sc)
	c, err := tc.Get("V1", sc)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("dropped trace should rebuild")
	}
	if _, err := tc.Get("V99", sc); err == nil {
		t.Fatal("unknown workload should fail")
	}
}

func TestRunnerScalesPlatform(t *testing.T) {
	small := Quick()
	big := Default()
	rs := NewRunner(small)
	rb := NewRunner(big)
	// Fewer mabs per frame -> proportionally more cycles per mab.
	if rs.Cfg.Platform.Decoder.CyclesPerMabBase <= rb.Cfg.Platform.Decoder.CyclesPerMabBase {
		t.Fatalf("scaling: small %d should exceed big %d",
			rs.Cfg.Platform.Decoder.CyclesPerMabBase, rb.Cfg.Platform.Decoder.CyclesPerMabBase)
	}
	if rs.Cfg.Platform.DRAM.EnergyActPre <= rb.Cfg.Platform.DRAM.EnergyActPre {
		t.Fatal("DRAM energy scaling")
	}
}

func checkTable(t *testing.T, tb *stats.Table, err error, needle string) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() == 0 {
		t.Fatal("empty table")
	}
	if needle != "" && !strings.Contains(tb.String(), needle) {
		t.Fatalf("table missing %q:\n%s", needle, tb)
	}
}

func TestTables(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Table1()
	checkTable(t, tb, err, "SES Astra")
	if tb.NumRows() != 16 {
		t.Fatalf("table1 rows = %d", tb.NumRows())
	}
	tb, err = r.Table2()
	checkTable(t, tb, err, "DRAM")
}

func TestFig1aAndFig5(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Fig1a()
	checkTable(t, tb, err, "memory-total")
	tb, err = r.Fig5()
	checkTable(t, tb, err, "activates/frame")
}

func TestFig7bAndFig9a(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Fig7b()
	checkTable(t, tb, err, "gab")
	tb, err = r.Fig9a()
	checkTable(t, tb, err, "avg")
}

func TestFig9bPopularity(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Fig9b()
	checkTable(t, tb, err, "gab")
}

func TestFig11Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("12 pipeline runs")
	}
	r := NewRunner(tinyConfig())
	tb, err := r.Fig11()
	checkTable(t, tb, err, "avg")
	// 2 videos + avg + paper row.
	if tb.NumRows() != 4 {
		t.Fatalf("fig11 rows = %d", tb.NumRows())
	}
}

func TestDCCExperiment(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.DCC()
	checkTable(t, tb, err, "GAB + DCC")
}

func TestFig12dCollisions(t *testing.T) {
	if testing.Short() {
		t.Skip("500k-block stress series")
	}
	r := NewRunner(tinyConfig())
	tb, err := r.Fig12d()
	checkTable(t, tb, err, "CO-MACH")
}

func TestExtensionExperiments(t *testing.T) {
	if testing.Short() {
		t.Skip("several pipeline runs")
	}
	r := NewRunner(tinyConfig())

	tb, err := r.Record()
	checkTable(t, tb, err, "MACH @ camera")

	tb, err = r.RelatedTE()
	checkTable(t, tb, err, "transaction elimination")

	tb, err = r.Replacement()
	checkTable(t, tb, err, "optimal")

	tb, err = r.ColorSpace()
	checkTable(t, tb, err, "YUV444")

	tb, err = r.Contention([]float64{0, 200})
	checkTable(t, tb, err, "racing")

	tb, err = r.SlackPrediction()
	checkTable(t, tb, err, "SlackPredict")
}

func TestFig12Sweeps(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs")
	}
	r := NewRunner(tinyConfig())
	tb, err := r.Fig12a([]int{2, 4})
	checkTable(t, tb, err, "")
	tb, err = r.Fig12b([]int{256, 2048})
	checkTable(t, tb, err, "")
	tb, err = r.Fig12c([]int{4, 8})
	checkTable(t, tb, err, "4x4")
	tb, err = r.Fig10c([]int{4, 16})
	checkTable(t, tb, err, "")
	tb, err = r.Fig10d()
	checkTable(t, tb, err, "digest-indexed")
	tb, err = r.Fig10e()
	checkTable(t, tb, err, "MACH buffer")
	tb, err = r.Fig4([]int{1, 4})
	checkTable(t, tb, err, "batch")
	tb, err = r.Fig6([]int{1, 4})
	checkTable(t, tb, err, "")
	tb, err = r.Fig7a([]int{16, 64})
	checkTable(t, tb, err, "")
}

func TestFleetExperiment(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Fleet(8)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows = %d, want one per scheme", tb.NumRows())
	}
	out := tb.String()
	for _, name := range []string{"Baseline", "Race-to-Sleep", "GAB"} {
		if !strings.Contains(out, name) {
			t.Fatalf("fleet table missing %s:\n%s", name, out)
		}
	}
}
