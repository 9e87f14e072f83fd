package main

import (
	"io"
	"strings"
	"testing"

	"smatch/internal/experiment"
)

func quickOpts() experiment.Options {
	return experiment.Options{
		WeiboNodes:     200,
		PlaintextSizes: []uint{64},
		Thetas:         []int{8},
		CostUsers:      1,
	}
}

func TestRunOneDispatchFast(t *testing.T) {
	// The cheap experiments run for real; the expensive ones are covered
	// by the experiment package's own tests.
	for _, name := range []string{"table1", "table2", "fig1", "fig4a", "fig5d", "fig5e", "fig5f"} {
		t.Run(name, func(t *testing.T) {
			tab, err := runOne(name, quickOpts())
			if err != nil {
				t.Fatal(err)
			}
			if tab.ID == "" || len(tab.Rows) == 0 {
				t.Errorf("experiment %s produced an empty table", name)
			}
		})
	}
}

func TestRunOneDatasetVariants(t *testing.T) {
	// fig4c/d/e and fig5a/b/c must map to the right dataset.
	for name, wantDS := range map[string]string{
		"fig4c": "Infocom06",
		"fig4d": "Sigcomm09",
		"fig4e": "Weibo",
	} {
		tab, err := runOne(name, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !strings.Contains(tab.Title, wantDS) {
			t.Errorf("%s title %q does not mention %s", name, tab.Title, wantDS)
		}
	}
}

// TestExperimentsDispatch checks that every name -exp advertises, and that
// -exp all runs, resolves to an experiment. It only resolves them: the
// expensive ones run in the experiment package's own tests.
func TestExperimentsDispatch(t *testing.T) {
	for _, name := range experiments {
		if _, err := lookup(name, quickOpts()); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRunOneUnknown(t *testing.T) {
	if _, err := runOne("fig9z", quickOpts()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run(io.Discard, "nope", quickOpts(), false); err == nil {
		t.Error("run with unknown experiment succeeded")
	}
}
