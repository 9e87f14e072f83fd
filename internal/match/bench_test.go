package match

import (
	"fmt"
	"math/big"
	"sync/atomic"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

// Parallel store benchmarks: the skiplist Server against the slice-based
// Unsharded reference, at parallelism 1, 8 and 32. Both take one RWMutex,
// so what differs is the index: an O(log n) skiplist seek and splice
// against a binary search and a memmove over a sorted slice. Run with:
//
//	go test -bench BenchmarkStore -benchtime 1s ./internal/match
const (
	benchUsers   = 20000
	benchBuckets = 256
)

func benchStoreEntry(id profile.ID, bucket int, sum int64) Entry {
	return Entry{
		ID:      id,
		KeyHash: []byte(fmt.Sprintf("bench-bucket-%03d", bucket)),
		Chain:   &chain.Chain{Cts: []*big.Int{big.NewInt(sum)}, CtBits: 48},
		Auth:    []byte("bench-auth"),
	}
}

func benchPreload(b *testing.B, s Store) {
	b.Helper()
	for i := 1; i <= benchUsers; i++ {
		if err := s.Upload(benchStoreEntry(profile.ID(i), i%benchBuckets, int64(i)*2654435761%benchUsers)); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStores enumerates the two implementations under test.
func benchStores() []struct {
	name string
	mk   func() Store
} {
	return []struct {
		name string
		mk   func() Store
	}{
		{"slice", func() Store { return NewUnsharded() }},
		{"skiplist", func() Store { return NewServer() }},
	}
}

func benchParallel(b *testing.B, par int, mk func() Store, op func(s Store, seq uint64)) {
	b.Helper()
	s := mk()
	benchPreload(b, s)
	var seq atomic.Uint64
	b.SetParallelism(par)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			op(s, seq.Add(1))
		}
	})
}

func BenchmarkStoreUpload(b *testing.B) {
	for _, st := range benchStores() {
		for _, par := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/p%d", st.name, par), func(b *testing.B) {
				benchParallel(b, par, st.mk, func(s Store, seq uint64) {
					// Fresh IDs above the preloaded range: every call inserts.
					id := profile.ID(benchUsers + 1 + seq%(1<<31-benchUsers-1))
					_ = s.Upload(benchStoreEntry(id, int(seq)%benchBuckets, int64(seq)))
				})
			})
		}
	}
}

func BenchmarkStoreMatch(b *testing.B) {
	for _, st := range benchStores() {
		for _, par := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/p%d", st.name, par), func(b *testing.B) {
				benchParallel(b, par, st.mk, func(s Store, seq uint64) {
					_, _ = s.Match(profile.ID(1+seq%benchUsers), 5)
				})
			})
		}
	}
}

func BenchmarkStoreMixed(b *testing.B) {
	for _, st := range benchStores() {
		for _, par := range []int{1, 8, 32} {
			b.Run(fmt.Sprintf("%s/p%d", st.name, par), func(b *testing.B) {
				benchParallel(b, par, st.mk, func(s Store, seq uint64) {
					// 1-in-4 re-uploads, the rest queries — the bursty
					// production shape.
					if seq%4 == 0 {
						id := profile.ID(1 + seq%benchUsers)
						_ = s.Upload(benchStoreEntry(id, int(seq)%benchBuckets, int64(seq)))
					} else {
						_, _ = s.Match(profile.ID(1+seq%benchUsers), 5)
					}
				})
			})
		}
	}
}
