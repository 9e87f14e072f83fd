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
//
// -quick trims the parameter sweeps for a fast sanity pass; -csv emits
// machine-readable output; -weibo-nodes rescales the Weibo stand-in.
//
// -match-bench switches to the match-store throughput benchmark (Upload /
// Match / mixed ops/sec for the sharded store vs the single-lock baseline
// at 1, 8 and 32 goroutines, plus single-bucket 100k-entry cells that
// isolate the ordered index against the sorted-slice baseline);
// -match-out writes the JSON report that is committed as BENCH_match.json.
// -match-smoke instead runs the short single-bucket regression gate used
// in CI, failing when the indexed store's advantage over the slice
// baseline collapses; -match-baseline names the committed report to
// structurally validate.
//
// -wal-bench switches to the write-ahead-log benchmark (durable
// appends/sec with group commit vs one fsync per append, again at 1, 8
// and 32 goroutines); -wal-out writes the JSON report that is committed
// as BENCH_wal.json.
//
// -enc-bench switches to the client-crypto benchmark (OPE Encrypt and
// Client.Enc/PrepareUpload ops/sec and allocs/op, cold caches vs warm
// memo tree vs repeated plaintexts, plus batched vs single-frame upload
// throughput at 8 concurrent clients against an in-process WAL-backed
// server); -enc-out writes the JSON report that is committed as
// BENCH_enc.json.
//
// -cluster-bench switches to the cluster routing benchmark (upload and
// query throughput through the fan-out router fronting 1, 2 and 4
// in-process partition nodes); -cluster-out writes the JSON report that
// is committed as BENCH_cluster.json.
//
// -cpuprofile and -memprofile write pprof profiles for whichever mode
// runs (CPU profiling covers the whole run; the heap profile is taken
// at exit).
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
		exp        = flag.String("exp", "all", "experiment to run (all, table1, table2, fig1, fig4a, fig4b, fig4c..e, fig5a..f, ablation1, ablation2)")
		quick      = flag.Bool("quick", false, "trim sweeps for a fast pass (k up to 512, 3 thetas)")
		csv        = flag.Bool("csv", false, "emit CSV instead of aligned text")
		weiboNodes = flag.Int("weibo-nodes", 1000, "node count for the Weibo stand-in (paper: 1000000)")
		costUsers  = flag.Int("cost-users", 3, "users averaged per point in the cost experiments")
		outPath    = flag.String("out", "", "also write the report to this file")
		matchBench = flag.Bool("match-bench", false, "run the match-store throughput benchmark instead of the paper experiments")
		matchDur   = flag.Duration("match-dur", 500*time.Millisecond, "measurement window per match-bench cell")
		matchOut   = flag.String("match-out", "", "write the match-bench JSON report to this file (e.g. BENCH_match.json)")
		matchSmoke = flag.Bool("match-smoke", false, "run the ordered-index regression gate: short single-bucket cells, fail if the indexed store loses its structural advantage over the slice baseline")
		matchBase  = flag.String("match-baseline", "", "committed match-bench report to structurally validate during -match-smoke (e.g. BENCH_match.json)")
		walBench   = flag.Bool("wal-bench", false, "run the write-ahead-log append benchmark instead of the paper experiments")
		walDur     = flag.Duration("wal-dur", 500*time.Millisecond, "measurement window per wal-bench cell")
		walOut     = flag.String("wal-out", "", "write the wal-bench JSON report to this file (e.g. BENCH_wal.json)")
		encBench   = flag.Bool("enc-bench", false, "run the client-crypto + upload-path benchmark instead of the paper experiments")
		encDur     = flag.Duration("enc-dur", 500*time.Millisecond, "measurement window per enc-bench cell")
		encOut     = flag.String("enc-out", "", "write the enc-bench JSON report to this file (e.g. BENCH_enc.json)")
		clBench    = flag.Bool("cluster-bench", false, "run the cluster routing benchmark (upload/query throughput through the fan-out router at 1, 2 and 4 partitions) instead of the paper experiments")
		clDur      = flag.Duration("cluster-dur", time.Second, "measurement window per cluster-bench cell")
		clOut      = flag.String("cluster-out", "", "write the cluster-bench JSON report to this file (e.g. BENCH_cluster.json)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile for the selected mode to this file")
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

	if *matchSmoke {
		if err := runMatchSmoke(os.Stdout, *matchDur, *matchBase); err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *matchBench {
		if err := runMatchBench(os.Stdout, *matchDur, *matchOut, []int{1, 8, 32}); err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *walBench {
		if err := runWALBench(os.Stdout, *walDur, *walOut, []int{1, 8, 32}); err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *encBench {
		if err := runEncBench(os.Stdout, *encDur, *encOut); err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		return
	}
	if *clBench {
		if err := runClusterBench(os.Stdout, *clDur, *clOut, []int{1, 2, 4}); err != nil {
			fmt.Fprintln(os.Stderr, "smatch-bench:", err)
			os.Exit(1)
		}
		return
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

func run(w io.Writer, exp string, opts experiment.Options, csv bool) error {
	names := []string{exp}
	if exp == "all" {
		names = []string{"table1", "table2", "fig1", "fig4a", "fig4b",
			"fig4c", "fig4d", "fig4e", "fig5a", "fig5b", "fig5c",
			"fig5d", "fig5e", "fig5f", "ablation1", "ablation2", "ablation3", "ablation4"}
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
	perDataset := func(suffix string, order string) (*dataset.Dataset, error) {
		idx := strings.Index(order, suffix)
		if idx < 0 {
			return nil, fmt.Errorf("unknown experiment variant %q", suffix)
		}
		switch idx {
		case 0:
			return dataset.Infocom06(), nil
		case 1:
			return dataset.Sigcomm09(), nil
		default:
			return dataset.Weibo(opts.WeiboNodes), nil
		}
	}
	switch name {
	case "table1":
		return experiment.Table1(), nil
	case "table2":
		return experiment.Table2(opts.WeiboNodes), nil
	case "fig1":
		return experiment.Fig1()
	case "fig4a":
		return experiment.Fig4a(opts)
	case "fig4b":
		return experiment.Fig4b(opts)
	case "fig4c", "fig4d", "fig4e":
		ds, err := perDataset(name[4:], "cde")
		if err != nil {
			return nil, err
		}
		return experiment.Fig4Client(ds, opts)
	case "fig5a", "fig5b", "fig5c":
		ds, err := perDataset(name[4:], "abc")
		if err != nil {
			return nil, err
		}
		return experiment.Fig5Server(ds, opts)
	case "fig5d", "fig5e", "fig5f":
		ds, err := perDataset(name[4:], "def")
		if err != nil {
			return nil, err
		}
		return experiment.Fig5Comm(ds, opts)
	case "ablation1":
		return experiment.AblationMultiProbe(dataset.Infocom06(), opts.Thetas, nil)
	case "ablation2":
		return experiment.AblationServerSort(dataset.Infocom06())
	case "ablation3":
		return experiment.AblationRS(dataset.Infocom06(), opts.Thetas)
	case "ablation4":
		return experiment.AccuracyComparison(dataset.Infocom06(), 8, 5)
	default:
		return nil, fmt.Errorf("unknown experiment %q", name)
	}
}
