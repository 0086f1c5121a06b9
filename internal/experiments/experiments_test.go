package experiments

import (
	"regexp"
	"slices"
	"strings"
	"testing"

	"mach/internal/hashes"
	"mach/internal/mach"
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

// cellSep separates a rendered table's cells: at least two spaces, where a
// cell holds at most single spaces.
var cellSep = regexp.MustCompile(`\s{2,}`)

// tableRows splits a rendered table into its data rows' cells.
func tableRows(tb *stats.Table) [][]string {
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	var rows [][]string
	for _, l := range lines[2:] { // header and rule
		rows = append(rows, cellSep.Split(strings.TrimSpace(l), -1))
	}
	return rows
}

// TestFig9bPopularity recomputes each mode's top-1/8/64 shares from the
// same MACH pass's per-digest match counts, so a count the table takes in
// map order instead of by size fails here, and requires gab's top digest
// to capture a larger share than mab's, the direction of the paper's
// 58% against 20%.
func TestFig9bPopularity(t *testing.T) {
	r := NewRunner(tinyConfig())
	tb, err := r.Fig9b()
	checkTable(t, tb, err, "gab")
	rows := tableRows(tb)
	top1 := map[string]float64{}
	for i, gradient := range []bool{false, true} {
		cfg := mach.DefaultConfig()
		cfg.Gradient = gradient
		cfg.TrackPopularity = true
		st, err := r.machPass(r.Cfg.Videos[0], cfg)
		if err != nil {
			t.Fatal(err)
		}
		var counts []int64
		var total int64
		for _, c := range st.DigestMatches {
			counts = append(counts, c)
			total += c
		}
		slices.Sort(counts)
		slices.Reverse(counts)
		if total == 0 {
			t.Fatalf("row %d: no digest matches to rank", i)
		}
		row := rows[i]
		for j, k := range []int{1, 8, 64} {
			var s int64
			for _, c := range counts[:min(k, len(counts))] {
				s += c
			}
			if want := pct(float64(s) / float64(total)); row[1+j] != want {
				t.Errorf("%s top-%d = %s, want %s (the %d largest of %d digest counts)", row[0], k, row[1+j], want, k, len(counts))
			}
		}
		top1[row[0]] = float64(counts[0]) / float64(total)
	}
	if top1["gab"] <= top1["mab"] {
		t.Errorf("gab top-1 %s not above mab top-1 %s", pct(top1["gab"]), pct(top1["mab"]))
	}
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
	// One row per digest function, in hashes.AllFuncs order. Fig12d keeps
	// its trackers in a map; its rows must not take the map's order.
	rows := tableRows(tb)
	for i, f := range hashes.AllFuncs() {
		if rows[i][0] != f.String() {
			t.Errorf("row %d is %q, want %q (rows in hashes.AllFuncs order)", i, rows[i][0], f)
		}
	}
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
