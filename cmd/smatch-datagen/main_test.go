package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunStats(t *testing.T) {
	if err := run("Infocom06", 0, 0, "-", true, "", "", 128, 64, 8, "", 1.2, 16); err != nil {
		t.Fatal(err)
	}
}

func TestRunCSVToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ds.csv")
	if err := run("Sigcomm09", 0, 0, out, false, "", "", 128, 64, 8, "", 1.2, 16); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 77 { // header + 76 users
		t.Errorf("CSV has %d lines, want 77", len(lines))
	}
	if !strings.HasPrefix(lines[0], "user_id,") {
		t.Errorf("bad header: %q", lines[0])
	}
	if cols := strings.Count(lines[1], ","); cols != 6 {
		t.Errorf("row has %d commas, want 6 (ID + 6 attrs)", cols)
	}
}

func TestRunWeiboScaled(t *testing.T) {
	out := filepath.Join(t.TempDir(), "weibo.csv")
	if err := run("Weibo", 123, 0, out, false, "", "", 128, 64, 8, "", 1.2, 16); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 124 {
		t.Errorf("scaled Weibo CSV has %d lines, want 124", len(lines))
	}
}

// TestRunNodesOnlyForWeibo: -nodes sizes the Weibo population only; on
// another dataset, or with -in, it is an error rather than ignored.
func TestRunNodesOnlyForWeibo(t *testing.T) {
	for _, name := range []string{"Infocom06", "Sigcomm09"} {
		if err := run(name, 50, 0, "-", true, "", "", 128, 64, 8, "", 1.2, 16); err == nil {
			t.Errorf("-nodes with -dataset %s accepted", name)
		}
	}
	dump := filepath.Join(t.TempDir(), "dump.csv")
	if err := run("Infocom06", 0, 0, dump, false, "", "", 128, 64, 8, "", 1.2, 16); err != nil {
		t.Fatal(err)
	}
	if err := run("Weibo", 50, 0, "-", true, dump, "", 128, 64, 8, "", 1.2, 16); err == nil {
		t.Error("-nodes with -in accepted")
	}
	if err := run("Weibo", -1, 0, "-", true, "", "", 128, 64, 8, "", 1.2, 16); err == nil {
		t.Error("negative -nodes accepted")
	}
}

func TestRunSeededPopulations(t *testing.T) {
	// The same seed reproduces the same population; a different seed (and
	// seed 0, the canonical one) produce different populations over the same
	// schema.
	read := func(seed uint64) string {
		t.Helper()
		out := filepath.Join(t.TempDir(), "ds.csv")
		if err := run("Infocom06", 0, seed, out, false, "", "", 128, 64, 8, "", 1.2, 16); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	a, b := read(42), read(42)
	if a != b {
		t.Error("seed 42 is not reproducible")
	}
	if c := read(43); c == a {
		t.Error("seeds 42 and 43 generated identical populations")
	}
	if canonical := read(0); canonical == a {
		t.Error("seed 42 matches the canonical population")
	}
	if h := strings.SplitN(a, "\n", 2)[0]; !strings.HasPrefix(h, "user_id,") {
		t.Errorf("seeded CSV header: %q", h)
	}
}

func TestRunUnknownDataset(t *testing.T) {
	if err := run("MySpace", 0, 0, "-", true, "", "", 128, 64, 8, "", 1.2, 16); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestRunLoadExternalCSV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "dump.csv")
	if err := run("Infocom06", 0, 0, out, false, "", "", 128, 64, 8, "", 1.2, 16); err != nil {
		t.Fatal(err)
	}
	// Reload the dump and print its stats.
	if err := run("", 0, 0, "-", true, out, "", 128, 64, 8, "", 1.2, 16); err != nil {
		t.Fatalf("loading external CSV: %v", err)
	}
	if err := run("", 0, 0, "-", true, filepath.Join(t.TempDir(), "missing.csv"), "", 128, 64, 8, "", 1.2, 16); err == nil {
		t.Error("missing input file accepted")
	}
}

func TestParseWeightsFlag(t *testing.T) {
	if w, err := parseWeights("", 6, 1.2, 16, 0); err != nil || w != nil {
		t.Errorf("empty spec: (%v, %v), want (nil, nil)", w, err)
	}
	if w, err := parseWeights("zipf", 6, 1.2, 16, 7); err != nil || len(w) != 6 {
		t.Errorf("zipf spec: (%v, %v), want 6 weights", w, err)
	}
	if w, err := parseWeights("3,1,2,1,1,4", 6, 1.2, 16, 0); err != nil || len(w) != 6 {
		t.Errorf("explicit spec: (%v, %v)", w, err)
	}
	if _, err := parseWeights("3,1", 6, 1.2, 16, 0); err == nil {
		t.Error("wrong-width vector accepted")
	}
	if _, err := parseWeights("3,x", 2, 1.2, 16, 0); err == nil {
		t.Error("malformed vector accepted")
	}
}
