package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	benchDir = "." // tests run in the benchmark's own directory
	logOut = io.Discard
	os.Exit(m.Run())
}

// deviceInputs digests what a seed gives the device cell: its users,
// queriers, ground truth, drifts and device secrets.
func deviceInputs(t *testing.T, seed uint64) [32]byte {
	t.Helper()
	h := sha256.New()
	sc, err := newScheme(seed)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := newDevicePop(seed, 12, deviceBase, sc.gen, sc.ds)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range dp.joiners {
		fmt.Fprintln(h, p.ID, p.Attrs, dp.truth[p.ID])
	}
	fmt.Fprintln(h, dp.queriers, deviceSecret(seed, 0))
	for k := 0; k < 4; k++ {
		fmt.Fprintln(h, fmt.Sprint(dp.drift(seed, k, k%2, 2)))
	}
	return [32]byte(h.Sum(nil))
}

// serveInputs digests what a seed gives a server workload: the preloaded
// records and the first ops of the schedule with their targets.
func serveInputs(workload string, seed uint64) [32]byte {
	h := sha256.New()
	spec := serveSpecs[workload]
	pop := newPopulation(seed, 2000, 40)
	for id := uint32(1); id <= 2000; id++ {
		u := uploadReqOf(pop.entry(id, pop.commOf(id, 0, -1), 0))
		h.Write(u.Encode())
	}
	s := &serve{spec: spec, seed: seed, pop: pop, mix: newPattern(seed, spec.mix[:]), nStable: 1200, nMovable: 200, nRemovable: 600}
	for i := uint64(0); i < 500; i++ {
		kind, ord := s.mix.at(i)
		fmt.Fprintln(h, kind, ord, s.target(i), s.commAt(uint32(2001+ord), 0), s.commAt(uint32(1201+ord%200), uint32(1+ord/200)))
	}
	return [32]byte(h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b, c := deviceInputs(t, 7), deviceInputs(t, 7), deviceInputs(t, 8); a != b || a == c {
		t.Errorf("device cell: same seed same inputs %v, other seed other inputs %v", a == b, a != c)
	}
	for w := range serveSpecs {
		if a, b, c := serveInputs(w, 7), serveInputs(w, 7), serveInputs(w, 8); a != b || a == c {
			t.Errorf("%s: same seed same inputs %v, other seed other inputs %v", w, a == b, a != c)
		}
	}
}

// contract is BENCHMARK.json at the repository root.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

// sameSpecs reports where the contract's list and the benchmark's differ.
func sameSpecs(t *testing.T, what string, listed, reported []metricSpec) {
	t.Helper()
	if len(listed) != len(reported) {
		t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", what, len(listed), len(reported))
	}
	for i := 0; i < len(listed) && i < len(reported); i++ {
		if listed[i] != reported[i] {
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, the benchmark %+v", what, i, listed[i], reported[i])
		}
	}
}

func TestContractListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range c.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != fmt.Sprint(workloadNames) {
		t.Errorf("workloads %v, the benchmark runs %v", names, workloadNames)
	}
	sameSpecs(t, "end_to_end", c.EndToEnd, endToEnd)
	sameSpecs(t, "per_layer", c.PerLayer, perLayer)
	hasSetup := false
	for _, m := range c.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s in s, lower is better")
	}
}

// TestSmoke runs every workload untraced and traced at toy scale and
// checks that each run reports exactly its metric set, finite, with the
// units of the contract, that its own correctness checks pass, and that
// the budget closure was computed. The device crypto keeps its production
// size; the populations, the phases, the Paillier modulus and the log the
// WAL cell reads behind are small, and the eight runs share one scheme.
func TestSmoke(t *testing.T) {
	const seed = 3
	sc, err := newScheme(seed)
	if err != nil {
		t.Fatal(err)
	}
	toy := scale{users: 3000, comms: 60, setups: 1, throughput: 200 * time.Millisecond, latency: 200 * time.Millisecond,
		device: deviceSizes{queriers: 6, finds: 2, drifts: 2}, cellSample: 20, homoN: 2, homoCandidates: 4, homoBits: 512,
		walTail: 1 << 18, scheme: sc, rateFactor: 0.2}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			out, err := runWorkload(w, seed, 1, traced, toy)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			specs := endToEnd
			if traced {
				specs = perLayer
			}
			if len(out.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(out.Metrics), len(specs))
			}
			for _, m := range specs {
				got, ok := out.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want a finite value in %s", w, traced, m.Name, got, ok, m.Unit)
				}
			}
			// A toy open-loop phase is too short to be valid by the
			// production limits; everything else must hold.
			if out.Failed > 1 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: %d of %d failed\n%v", w, traced, out.Failed, out.Attempted, out.notes)
			}
			if traced {
				for _, kind := range []string{"read", "write", "register", "find"} {
					if _, ok := out.Metrics["budget."+kind+"_gap_pct"]; !ok {
						t.Errorf("%s: no budget closure for %s", w, kind)
					}
				}
				if _, err := os.Stat("out/trace-" + w + ".json"); err != nil {
					t.Errorf("%s: %v", w, err)
				}
			}
		}
	}
}
