// Command smatch-bench regenerates every table and figure from the paper's
// evaluation section. Run it with no flags for the full suite, or select
// individual experiments:
//
//	smatch-bench -exp table1            # Table I  feature comparison
//	smatch-bench -exp table2            # Table II dataset properties
//	smatch-bench -exp fig1              # Fig 1    OPE leakage pruning
//	smatch-bench -exp fig4a             # Fig 4(a) entropy after increase+chaining
//	smatch-bench -exp fig4b             # Fig 4(b) true positive rate vs theta
//	smatch-bench -exp fig4c|fig4d|fig4e # Fig 4(c-e) client cost per dataset
//	smatch-bench -exp fig5a|fig5b|fig5c # Fig 5(a-c) server cost per dataset
//	smatch-bench -exp fig5d|fig5e|fig5f # Fig 5(d-f) communication cost per dataset
//	smatch-bench -exp ablation1         # A1 multi-probe true-positive rate
//	smatch-bench -exp ablation2         # A2 sorted index vs per-query sort
//	smatch-bench -exp ablation3         # A3 with and without the Reed-Solomon snap
//	smatch-bench -exp ablation4         # A4 S-MATCH vs homoPM accuracy
//
// -quick trims the parameter sweeps for a fast sanity pass; -csv emits
// machine-readable output; -weibo-nodes rescales the Weibo stand-in.
//
// -cpuprofile and -memprofile write pprof profiles of the run (CPU
// profiling covers the whole run; the heap profile is taken at exit).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"smatch/internal/dataset"
	"smatch/internal/experiment"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment to run: all, or one of "+strings.Join(experiments, ", "))
		quick      = flag.Bool("quick", false, "trim sweeps for a fast pass (k up to 512, 3 thetas)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		weiboNodes = flag.Int("weibo-nodes", 1000, "node count for the Weibo stand-in (paper: 1000000)")
		costUsers  = flag.Int("cost-users", 3, "users averaged per point in the cost experiments")
		outPath    = flag.String("out", "", "also write the report to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at exit to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "smatch-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			}
		}()
	}

	opts := experiment.Options{WeiboNodes: *weiboNodes, CostUsers: *costUsers}
	if *quick {
		opts.PlaintextSizes = []uint{64, 128, 256, 512}
		opts.Thetas = []int{5, 8, 10}
	}

	var sink io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		defer f.Close()
		sink = io.MultiWriter(os.Stdout, f)
	}
	if err := run(sink, *exp, opts, *csv); err != nil {
		fmt.Fprintln(os.Stderr, "smatch-bench:", err)
		os.Exit(1)
	}
}

// experiments names every experiment -exp accepts, in the order -exp all
// runs them.
var experiments = []string{
	"table1", "table2", "fig1", "fig4a", "fig4b",
	"fig4c", "fig4d", "fig4e", "fig5a", "fig5b", "fig5c",
	"fig5d", "fig5e", "fig5f", "ablation1", "ablation2", "ablation3", "ablation4",
}

func run(w io.Writer, exp string, opts experiment.Options, csv bool) error {
	names := []string{exp}
	if exp == "all" {
		names = experiments
	}
	for _, name := range names {
		start := time.Now()
		table, err := runOne(name, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if csv {
			fmt.Fprintf(w, "# %s — %s\n%s\n", table.ID, table.Title, table.CSV())
		} else {
			fmt.Fprintln(w, table.Render())
		}
		fmt.Fprintf(w, "[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

func runOne(name string, opts experiment.Options) (*experiment.Table, error) {
	exp, err := lookup(name, opts)
	if err != nil {
		return nil, err
	}
	return exp()
}

// lookup resolves an experiment name to the call that runs it, without
// running it.
func lookup(name string, opts experiment.Options) (func() (*experiment.Table, error), error) {
	// The per-dataset figure families name their datasets by suffix, in
	// the order Infocom06, Sigcomm09, Weibo.
	perDataset := func(suffixes string) *dataset.Dataset {
		switch strings.IndexByte(suffixes, name[len(name)-1]) {
		case 0:
			return dataset.Infocom06()
		case 1:
			return dataset.Sigcomm09()
		default:
			return dataset.Weibo(opts.WeiboNodes)
		}
	}
	switch name {
	case "table1":
		return func() (*experiment.Table, error) { return experiment.Table1(), nil }, nil
	case "table2":
		return func() (*experiment.Table, error) { return experiment.Table2(opts.WeiboNodes), nil }, nil
	case "fig1":
		return experiment.Fig1, nil
	case "fig4a":
		return func() (*experiment.Table, error) { return experiment.Fig4a(opts) }, nil
	case "fig4b":
		return func() (*experiment.Table, error) { return experiment.Fig4b(opts) }, nil
	case "fig4c", "fig4d", "fig4e":
		return func() (*experiment.Table, error) { return experiment.Fig4Client(perDataset("cde"), opts) }, nil
	case "fig5a", "fig5b", "fig5c":
		return func() (*experiment.Table, error) { return experiment.Fig5Server(perDataset("abc"), opts) }, nil
	case "fig5d", "fig5e", "fig5f":
		return func() (*experiment.Table, error) { return experiment.Fig5Comm(perDataset("def"), opts) }, nil
	case "ablation1":
		return func() (*experiment.Table, error) {
			return experiment.AblationMultiProbe(dataset.Infocom06(), opts.Thetas, nil)
		}, nil
	case "ablation2":
		return func() (*experiment.Table, error) { return experiment.AblationServerSort(dataset.Infocom06()) }, nil
	case "ablation3":
		return func() (*experiment.Table, error) { return experiment.AblationRS(dataset.Infocom06(), opts.Thetas) }, nil
	case "ablation4":
		return func() (*experiment.Table, error) { return experiment.AccuracyComparison(dataset.Infocom06(), 8, 5) }, nil
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}
