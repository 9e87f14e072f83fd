package main

// Spans recorded from outside the system: one around every call the
// benchmark makes into a layer, kept in memory and written out at exit.
// A layer's self time is its span minus the part its child spans cover.

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index into the same buffer, -1 for a root
	Req    uint64 `json:"req"`    // the op this span belongs to
}

// tracer is one goroutine's span buffer. A nil tracer records nothing, so
// the untraced run pays one nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(name string, parent int32, req uint64) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// traceStats is what a set of span buffers says per span name.
type traceStats struct {
	total map[string][]float64 // durations, µs
	self  map[string][]float64 // durations minus children, µs
}

func summarize(bufs []*tracer) traceStats {
	st := traceStats{total: map[string][]float64{}, self: map[string][]float64{}}
	for _, t := range bufs {
		if t == nil {
			continue
		}
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.Parent >= 0 {
				child[s.Parent] += s.End - s.Start
			}
		}
		for i, s := range t.spans {
			d := s.End - s.Start
			st.total[s.Name] = append(st.total[s.Name], float64(d)/1e3)
			st.self[s.Name] = append(st.self[s.Name], float64(d-child[i])/1e3)
		}
	}
	return st
}

// writeTrace stores the merged spans as bench/out/trace-<workload>.json.
func writeTrace(workload string, bufs []*tracer) (string, error) {
	type file struct {
		Workload string   `json:"workload"`
		Spans    [][]span `json:"spans_by_goroutine"`
	}
	f := file{Workload: workload}
	for _, t := range bufs {
		if t != nil && len(t.spans) > 0 {
			f.Spans = append(f.Spans, t.spans)
		}
	}
	dir := filepath.Join(benchDir, "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	out, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := json.NewEncoder(out).Encode(f); err != nil {
		out.Close()
		return "", err
	}
	return path, out.Close()
}

// quantile returns the q-quantile of xs (sorted in place) and whether at
// least ten samples lie beyond it, the rule for reporting a percentile.
func quantile(xs []float64, q float64) (v float64, supported bool) {
	if len(xs) == 0 {
		return math.NaN(), false
	}
	sort.Float64s(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i], len(xs)-1-i >= 10 || q <= 0.5
}

func quantileOf(xs []float64, q float64) float64 {
	v, _ := quantile(xs, q)
	return v
}

func median(xs []float64) float64 {
	v, _ := quantile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
