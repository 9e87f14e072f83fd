//go:build !race

// Allocation gate for the enqueue path: one call is one pending with one
// result channel whatever its record count. Excluded under -race
// (instrumentation allocates) and coverage.
package wal

import (
	"bytes"
	"testing"
)

// TestAppendBatchAllocs: an AppendBatch of 64 records allocates exactly
// what an AppendBatch of one does.
func TestAppendBatchAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("allocation counts are perturbed by coverage instrumentation")
	}
	w := testOpen(t, t.TempDir())
	measure := func(n int) float64 {
		records := make([][]byte, n)
		for i := range records {
			records[i] = bytes.Repeat([]byte{byte(i)}, 200)
		}
		for i := 0; i < 8; i++ { // steady state before counting
			if _, err := w.AppendBatch(records); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := w.AppendBatch(records); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := measure(1), measure(64)
	t.Logf("AppendBatch allocs/call: %.1f at 1 record, %.1f at 64", one, many)
	if one != many {
		t.Errorf("AppendBatch allocates %.1f per call at 64 records, %.1f at 1; want equal", many, one)
	}
}
