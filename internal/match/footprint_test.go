//go:build !race

// Footprint gates for the store's record layout: retained heap per user,
// allocations per re-upload, per snapshot and per chain sum. Excluded
// under -race, whose instrumentation allocates.
package match

import (
	"io"
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

// benchShapedEntry draws a record of the shape bench/ stores: 17 64-bit
// ciphertexts and a 336-byte auth blob under one of keys.
func benchShapedEntry(rng *rand.Rand, id profile.ID, keys [][]byte) Entry {
	cts := make([]*big.Int, 17)
	for i := range cts {
		cts[i] = new(big.Int).SetUint64(rng.Uint64())
	}
	auth := make([]byte, 336)
	rng.Read(auth)
	return Entry{ID: id, KeyHash: keys[rng.Intn(len(keys))],
		Chain: &chain.Chain{Cts: cts, CtBits: 64}, Auth: auth}
}

func benchShapedKeys(rng *rand.Rand, n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = make([]byte, 32)
		rng.Read(keys[i])
	}
	return keys
}

// TestStoreBytesPerUser bounds the heap a store of bench-shaped records
// retains per user: 20 000 records over 2 000 shared key hashes.
func TestStoreBytesPerUser(t *testing.T) {
	const users = 20000
	rng := rand.New(rand.NewSource(5))
	keys := benchShapedKeys(rng, 2000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := NewServer()
	for i := 1; i <= users; i++ {
		must(t, s.Upload(benchShapedEntry(rng, profile.ID(i), keys)))
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	perUser := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / users
	runtime.KeepAlive(s)
	t.Logf("%.0f B retained per user", perUser)
	if perUser > 800 {
		t.Errorf("store retains %.0f B per user, want <= 800", perUser)
	}
}

// TestUploadAllocs bounds the allocations of a re-upload into the same
// bucket: the record, its blob and limbs, and its skiplist node.
func TestUploadAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := benchShapedKeys(rng, 1)
	s := NewServer()
	for i := 1; i <= 64; i++ {
		must(t, s.Upload(benchShapedEntry(rng, profile.ID(i), keys)))
	}
	e := benchShapedEntry(rng, 7, keys)
	allocs := testing.AllocsPerRun(200, func() { must(t, s.Upload(e)) })
	t.Logf("%.0f allocations per re-upload", allocs)
	if allocs > 6 {
		t.Errorf("a same-bucket re-upload makes %.0f allocations, want <= 6", allocs)
	}
}

// TestSnapshotAllocsIndependentOfSize requires Snapshot's allocations to
// be a constant, not a per-record cost.
func TestSnapshotAllocsIndependentOfSize(t *testing.T) {
	measure := func(n int) float64 {
		s := NewServer()
		for i := 1; i <= n; i++ {
			must(t, s.Upload(entry(profile.ID(i), "snap", int64(i))))
		}
		return testing.AllocsPerRun(5, func() { must(t, s.Snapshot(io.Discard)) })
	}
	small, large := measure(1000), measure(4000)
	t.Logf("Snapshot allocations: %.0f at 1000 records, %.0f at 4000", small, large)
	if small != large {
		t.Errorf("Snapshot makes %.0f allocations at 1000 records and %.0f at 4000", small, large)
	}
}

var sumSink Sum

// TestSumOfChainAllocs requires SumOfChain to allocate only its limbs.
func TestSumOfChainAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, ctBits := range []uint{64, 2048} {
		ch := randChain(rng, 17, ctBits)
		if allocs := testing.AllocsPerRun(100, func() { sumSink = SumOfChain(ch) }); allocs != 1 {
			t.Errorf("SumOfChain at %d bits makes %.0f allocations, want 1", ctBits, allocs)
		}
	}
}
