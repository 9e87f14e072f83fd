package experiment

import (
	"sort"
	"strconv"
	"strings"
	"testing"

	"smatch/internal/dataset"
)

// quickOpts keeps the suite laptop-friendly; the full sweeps run in
// cmd/smatch-bench.
func quickOpts() Options {
	return Options{
		WeiboNodes:     400,
		PlaintextSizes: []uint{64, 256},
		Thetas:         []int{5, 8, 10},
		CostUsers:      2,
	}
}

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("table %s has no cell (%d,%d)", tab.ID, row, col)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("table %s cell (%d,%d) = %q is not numeric", tab.ID, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Header) != 7 {
		t.Errorf("Table I has %d columns, want 7 (property + 6 schemes)", len(tab.Header))
	}
	if len(tab.Rows) != 5 {
		t.Errorf("Table I has %d rows, want 5 properties", len(tab.Rows))
	}
	// S-MATCH is the only scheme with every feature.
	for _, row := range tab.Rows[2:] { // verification, fine-grained, fuzzy
		if row[1] != "yes" {
			t.Errorf("S-MATCH lacks %q", row[0])
		}
	}
	// Every HE scheme is honest-but-curious only.
	if tab.Rows[1][3] != "HBC" {
		t.Errorf("ZZS12 security = %q", tab.Rows[1][3])
	}
}

func TestTable2MatchesDatasetStats(t *testing.T) {
	tab := Table2(400)
	if len(tab.Rows) != 6 { // 3 datasets x (measured, paper)
		t.Fatalf("Table II has %d rows, want 6", len(tab.Rows))
	}
	// The measured Infocom06 row reflects the generator.
	got := dataset.Infocom06().Stats()
	if cell(t, tab, 0, 1) != strconv.Itoa(got.Nodes) {
		t.Errorf("Infocom06 measured nodes = %s, want %d", cell(t, tab, 0, 1), got.Nodes)
	}
	// Paper rows carry the PaperTableII values.
	want := dataset.PaperTableII["Infocom06"]
	if cell(t, tab, 1, 6) != strconv.Itoa(want.Landmarks06) {
		t.Errorf("Infocom06 paper landmarks = %s", cell(t, tab, 1, 6))
	}
}

func TestFig1PaperNumbers(t *testing.T) {
	tab, err := Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if got := cell(t, tab, 0, 3); got != "3" {
		t.Errorf("Fig 1(a) search space = %s, want 3", got)
	}
	if got := cell(t, tab, 1, 3); got != "39" {
		t.Errorf("Fig 1(b) search space = %s, want 39", got)
	}
}

func TestFig4aShape(t *testing.T) {
	tab, err := Fig4a(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// For every dataset column: entropy below the perfect diagonal,
	// within ~12 bits of it, and strictly increasing in k.
	for col := 1; col <= 3; col++ {
		var prev float64
		for row := range tab.Rows {
			k := cellFloat(t, tab, row, 0)
			h := cellFloat(t, tab, row, col)
			if h >= k {
				t.Errorf("%s k=%v: entropy %v not below perfect", tab.Header[col], k, h)
			}
			if h < k-14 {
				t.Errorf("%s k=%v: entropy %v too far below perfect", tab.Header[col], k, h)
			}
			if h <= prev {
				t.Errorf("%s: entropy not increasing at k=%v", tab.Header[col], k)
			}
			prev = h
		}
	}
}

func TestFig4bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full matching pipeline; skipped with -short")
	}
	tab, err := Fig4b(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Every TPR is a valid rate in the paper's rough band, and the
	// low-theta end is not below the high-theta end by much (the trend is
	// flat-to-declining, never strongly increasing).
	for col := 1; col <= 3; col++ {
		first := cellFloat(t, tab, 0, col)
		last := cellFloat(t, tab, len(tab.Rows)-1, col)
		for row := range tab.Rows {
			v := cellFloat(t, tab, row, col)
			if v < 0.55 || v > 1.0 {
				t.Errorf("%s theta=%s: TPR %v outside plausible band", tab.Header[col], cell(t, tab, row, 0), v)
			}
		}
		if last > first+0.12 {
			t.Errorf("%s: TPR strongly increasing with theta (%.3f -> %.3f), paper reports a decline", tab.Header[col], first, last)
		}
	}
}

func TestFig4ClientShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cost measurement; skipped with -short")
	}
	// One run times each series once, back to back, so a burst of CPU
	// contention lands on a single cell. Repeated runs interleave the
	// series; the shape is asserted on medians over the repeats.
	const reps = 9
	tabs := make([]*Table, reps)
	for r := range tabs {
		tab, err := Fig4Client(dataset.Infocom06(), quickOpts())
		if err != nil {
			t.Fatal(err)
		}
		tabs[r] = tab
	}
	median := func(f func(tab *Table) float64) float64 {
		vals := make([]float64, reps)
		for r, tab := range tabs {
			vals[r] = f(tab)
		}
		sort.Float64s(vals)
		return vals[reps/2]
	}
	// PM and PM+V well below homoPM at every k; PM+V above PM.
	for row := range tabs[0].Rows {
		k := cell(t, tabs[0], row, 0)
		pm := median(func(tab *Table) float64 { return cellFloat(t, tab, row, 1) })
		homo := median(func(tab *Table) float64 { return cellFloat(t, tab, row, 4) })
		// Paired within a run, where the two series are adjacent in time.
		auth := median(func(tab *Table) float64 { return cellFloat(t, tab, row, 2) - cellFloat(t, tab, row, 1) })
		if pm >= homo {
			t.Errorf("k=%s: PM %.3fms not below homoPM %.3fms", k, pm, homo)
		}
		if auth <= 0 {
			t.Errorf("k=%s: PM+V not above PM: median difference %.3fms", k, auth)
		}
		if homo/pm < 3 {
			t.Errorf("k=%s: client gap %.1fx below the paper's order-of-magnitude band", k, homo/pm)
		}
	}
}

func TestFig5ServerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("cost measurement; skipped with -short")
	}
	tab, err := Fig5Server(dataset.Infocom06(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for row := range tab.Rows {
		pm := cellFloat(t, tab, row, 1)
		homo := cellFloat(t, tab, row, 2)
		if homo/pm < 100 {
			t.Errorf("k=%s: server gap %.0fx, paper shape wants orders of magnitude", cell(t, tab, row, 0), homo/pm)
		}
	}
}

func TestFig5CommShape(t *testing.T) {
	tab, err := Fig5Comm(dataset.Infocom06(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Linear growth in k; PM+V sits a constant above PM.
	d := 6
	k0 := int(cellFloat(t, tab, 0, 0))
	pm0 := int(cellFloat(t, tab, 0, 1))
	k1 := int(cellFloat(t, tab, 1, 0))
	pm1 := int(cellFloat(t, tab, 1, 1))
	if pm1-pm0 != d*(k1-k0) {
		t.Errorf("PM upload growth %d bits, want d*delta-k = %d", pm1-pm0, d*(k1-k0))
	}
	off0 := cellFloat(t, tab, 0, 2) - cellFloat(t, tab, 0, 1)
	off1 := cellFloat(t, tab, 1, 2) - cellFloat(t, tab, 1, 1)
	if off0 != off1 || off0 <= 0 {
		t.Errorf("verification overhead not a positive constant: %v vs %v", off0, off1)
	}
}

func TestTableRenderAndCSV(t *testing.T) {
	tab := &Table{
		ID:     "T",
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1", "x,y"}, {"2", `say "hi"`}},
		Notes:  []string{"note line"},
	}
	text := tab.Render()
	if !strings.Contains(text, "=== T — demo ===") || !strings.Contains(text, "note: note line") {
		t.Errorf("Render output malformed:\n%s", text)
	}
	csv := tab.CSV()
	if !strings.Contains(csv, `"x,y"`) || !strings.Contains(csv, `"say ""hi"""`) {
		t.Errorf("CSV escaping broken:\n%s", csv)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.WeiboNodes != 1000 || len(o.PlaintextSizes) != 6 || len(o.Thetas) != 6 || o.CostUsers != 3 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

func TestMeasureTPRSmallDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline; skipped with -short")
	}
	tpr, err := MeasureTPR(dataset.Infocom06(), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tpr < 0.6 || tpr > 1 {
		t.Errorf("Infocom06 theta=8 TPR = %.3f outside plausible band", tpr)
	}
}
