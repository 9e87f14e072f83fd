// Command bench is the repository's end-to-end benchmark: four workloads
// against an in-process server over loopback TLS, the end-to-end metrics
// from an untraced run and a per-layer budget from a traced one.
// See README.md. Run it through run.sh from the repository root:
//
//	bash bench/run.sh --workload serve_read --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --workload all --trace 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
)

// logOut receives failure details; the result line goes to stdout.
var logOut io.Writer = os.Stderr

func main() {
	workload := flag.String("workload", "all", "device_lifecycle, serve_read, serve_churn, cluster_mixed or all")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long one run measures")
	trace := flag.Int("trace", 0, "1: the traced run (per-layer metrics, trace file, budget closure)")
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	ok := true
	for _, name := range names {
		if name != "device_lifecycle" {
			if _, known := serveSpecs[name]; !known {
				fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
				os.Exit(2)
			}
		}
		out, err := runWorkload(name, *seed, *seconds, *trace == 1, production(name, *seconds, *trace == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		report(os.Stdout, out)
		ok = ok && out.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints the run's notes, every metric by name with its unit, and
// last the one-line JSON result.
func report(w io.Writer, out *outcome) {
	for _, n := range out.notes {
		fmt.Fprintln(w, "#", n)
	}
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Fprintf(w, "%-34s %16.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // a map of finite floats always marshals
	}
	fmt.Fprintln(w, string(line))
}
