// Command smatch-datagen emits or inspects the synthetic evaluation
// datasets (the Table II stand-ins), and can bulk-load one into a running
// server over the batched upload path.
//
//	smatch-datagen -dataset Weibo -nodes 5000 -out weibo.csv
//	smatch-datagen -dataset Infocom06 -stats
//	smatch-datagen -dataset Sigcomm09 -seed 42 -out pop42.csv   # fresh reproducible population
//	smatch-datagen -in mydump.csv -stats   # analyze an external profile dump
//	smatch-datagen -dataset Weibo -nodes 2000 -upload 127.0.0.1:7788
//	smatch-datagen -dataset Infocom06 -weights zipf -upload 127.0.0.1:7788
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"smatch/internal/client"
	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/match"
	"smatch/internal/scoring"
	"smatch/internal/wire"
)

func main() {
	var (
		name    = flag.String("dataset", "Infocom06", "dataset (Infocom06, Sigcomm09, Weibo)")
		nodes   = flag.Int("nodes", 0, "override node count (Weibo only; 0 = default)")
		seed    = flag.Uint64("seed", 0, "generator seed for a reproducible alternate population (0 = the canonical per-dataset population)")
		out     = flag.String("out", "-", "output CSV path, - for stdout")
		stats   = flag.Bool("stats", false, "print Table II statistics instead of profiles")
		in      = flag.String("in", "", "load an external CSV dump instead of generating")
		upload  = flag.String("upload", "", "bulk-load the dataset into the server at this address (batched uploads) instead of writing CSV")
		batch   = flag.Int("batch", 128, "entries per frame for -upload")
		kBits   = flag.Uint("k", 64, "plaintext size in bits for -upload")
		theta   = flag.Int("theta", 8, "RS decoder threshold for -upload")
		weights = flag.String("weights", "", `attribute priorities for -upload: "w1,w2,..." (one per attribute), or "zipf" for a generated priority profile (a few heavy attributes, long unit tail; deterministic per -seed)`)
		zipfS   = flag.Float64("zipf-s", 1.2, "Zipf exponent for -weights zipf")
		zipfMax = flag.Uint("zipf-max", 16, "largest priority for -weights zipf")
	)
	flag.Parse()

	if err := run(*name, *nodes, *seed, *out, *stats, *in, *upload, *batch, *kBits, *theta,
		*weights, *zipfS, *zipfMax); err != nil {
		fmt.Fprintln(os.Stderr, "smatch-datagen:", err)
		os.Exit(1)
	}
}

func run(name string, nodes int, seed uint64, out string, stats bool, in, upload string,
	batch int, kBits uint, theta int, weights string, zipfS float64, zipfMax uint) error {
	if nodes < 0 {
		return fmt.Errorf("-nodes %d is negative", nodes)
	}
	if nodes > 0 && (in != "" || name != "Weibo") {
		return fmt.Errorf("-nodes applies only to -dataset Weibo, the one dataset with a free node count")
	}
	var ds *dataset.Dataset
	switch {
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		if ds, err = dataset.ReadCSV(f, in); err != nil {
			return err
		}
	case nodes > 0:
		ds = dataset.WeiboSeeded(nodes, seed)
	default:
		var err error
		ds, err = dataset.ByNameSeeded(name, seed)
		if err != nil {
			return err
		}
	}

	if stats {
		s := ds.Stats()
		fmt.Printf("%s: nodes=%d attrs=%d\n", ds.Name, s.Nodes, s.NumAttrs)
		if p, ok := dataset.PaperTableII[ds.Name]; ok {
			fmt.Printf("  entropy avg/max/min: %.2f / %.2f / %.2f  (paper: %.2f / %.2f / %.2f)\n",
				s.AvgEntropy, s.MaxEntropy, s.MinEntropy, p.AvgEntropy, p.MaxEntropy, p.MinEntropy)
			fmt.Printf("  landmark attrs tau=0.6: %d (paper %d), tau=0.8: %d (paper %d)\n",
				s.Landmarks06, p.Landmarks06, s.Landmarks08, p.Landmarks08)
		} else {
			fmt.Printf("  entropy avg/max/min: %.2f / %.2f / %.2f\n", s.AvgEntropy, s.MaxEntropy, s.MinEntropy)
			fmt.Printf("  landmark attrs tau=0.6: %d, tau=0.8: %d\n", s.Landmarks06, s.Landmarks08)
		}
		return nil
	}

	if upload != "" {
		w, err := parseWeights(weights, ds.Schema.NumAttrs(), zipfS, zipfMax, seed)
		if err != nil {
			return err
		}
		return bulkLoad(ds, upload, batch, kBits, theta, w)
	}

	if out == "-" {
		return ds.WriteCSV(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	return ds.WriteCSV(f)
}

// parseWeights resolves the -weights flag: empty = unweighted, "zipf" = a
// generated Zipf priority profile (deterministic per seed), otherwise an
// explicit comma-separated vector checked against the schema width.
func parseWeights(spec string, numAttrs int, zipfS float64, zipfMax uint, seed uint64) (scoring.Weights, error) {
	switch spec {
	case "", "unit":
		return nil, nil
	case "zipf":
		return scoring.Zipf(numAttrs, zipfS, uint32(zipfMax), seed), nil
	default:
		w, err := scoring.Parse(spec)
		if err != nil {
			return nil, fmt.Errorf("-weights: %w", err)
		}
		if len(w) != numAttrs {
			return nil, fmt.Errorf("-weights: %d weights for a %d-attribute dataset", len(w), numAttrs)
		}
		return w, nil
	}
}

// bulkLoad pushes the whole dataset into a running server through the
// batched upload path: entries are prepared with the full client pipeline
// (OPRF keygen over the wire, entropy mapping, chaining, OPE) and sent
// wire.MaxUploadBatch-bounded frames at a time — one round trip and one
// group-committed WAL fsync per frame instead of per user. Device secrets
// match smatch-client's ("device-<dataset>-<id>"), so a loaded server
// answers smatch-client queries for the same dataset — provided the query
// uses the same -weights: priorities are folded into key derivation, so a
// mismatched-weight query lands in unrelated buckets by construction.
func bulkLoad(ds *dataset.Dataset, addr string, batch int, kBits uint, theta int, w scoring.Weights) error {
	if batch < 1 || batch > wire.MaxUploadBatch {
		return fmt.Errorf("-batch %d out of range [1, %d]", batch, wire.MaxUploadBatch)
	}
	conn, err := client.Dial(addr, client.Options{})
	if err != nil {
		return err
	}
	defer conn.Close()
	oprfPK, err := conn.OPRFPublicKey()
	if err != nil {
		return fmt.Errorf("fetching OPRF key: %w", err)
	}
	sys, err := core.NewSystem(ds.Schema, ds.EmpiricalDist(),
		core.Params{PlaintextBits: kBits, Theta: theta, Weights: w}, oprfPK, nil)
	if err != nil {
		return err
	}
	if !w.IsUnit() {
		fmt.Printf("weighted upload: priorities %s\n", w)
	}

	start := time.Now()
	entries := make([]match.Entry, 0, batch)
	flush := func() error {
		if len(entries) == 0 {
			return nil
		}
		if _, err := conn.UploadBatch(entries); err != nil {
			return err
		}
		entries = entries[:0]
		return nil
	}
	for _, p := range ds.Profiles {
		dev, err := sys.NewClient(conn, []byte(fmt.Sprintf("device-%s-%d", ds.Name, p.ID)))
		if err != nil {
			return err
		}
		entry, _, err := dev.PrepareUpload(p)
		if err != nil {
			return fmt.Errorf("user %d: %w", p.ID, err)
		}
		entries = append(entries, entry)
		if len(entries) == batch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := flush(); err != nil {
		return err
	}
	fmt.Printf("bulk-loaded %d users from %s into %s in %v (%d per frame)\n",
		len(ds.Profiles), ds.Name, addr, time.Since(start).Round(time.Millisecond), batch)
	return nil
}
