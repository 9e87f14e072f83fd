package match

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smatch/internal/profile"
)

// stressDeadline bounds the stress workers. A method that takes the read
// lock twice blocks forever once a writer queues between the two calls;
// the deadline turns that hang into a failure.
const stressDeadline = 60 * time.Second

// TestStoreStress hammers one store from many goroutines with overlapping
// buckets and overlapping IDs: uploads and Puts (including bucket-moving
// re-uploads), removes, every query flavor, snapshots, ForEachEntry walks
// and the stat accessors. Run under -race this is the store's primary
// concurrency safety net; the invariant checks at the end catch lost or
// duplicated bucket entries.
func TestStoreStress(t *testing.T) {
	const (
		workers   = 12
		opsPerG   = 400
		idSpace   = 64 // small: forces ID collisions across workers
		bucketFan = 8  // small: forces bucket collisions across workers
	)
	s := NewServer()
	bucketName := func(n int) string { return fmt.Sprintf("bucket-%d", n%bucketFan) }

	// Seed so queries have someone to find.
	for i := 1; i <= idSpace; i++ {
		must(t, s.Upload(entry(profile.ID(i), bucketName(i), int64(i*3))))
	}

	var ops atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < opsPerG; i++ {
				id := profile.ID(1 + rng.Intn(idSpace))
				switch rng.Intn(14) {
				case 0, 1, 2:
					// Re-upload, frequently into a different bucket.
					_ = s.Upload(entry(id, bucketName(rng.Intn(bucketFan)), int64(rng.Intn(1000))))
				case 3:
					_ = s.Remove(id)
				case 4, 5, 7:
					_, _ = s.Match(id, 1+rng.Intn(5))
				case 6:
					alts := [][]byte{
						[]byte(bucketName(rng.Intn(bucketFan))),
						[]byte(bucketName(rng.Intn(bucketFan))),
					}
					_, _ = s.MatchProbe(id, alts, 3)
				case 8:
					var buf bytes.Buffer
					if err := s.Snapshot(&buf); err != nil {
						t.Errorf("snapshot: %v", err)
					}
				case 9:
					_, _ = s.MatchMaxDistance(id, big.NewInt(int64(rng.Intn(200))))
				case 10:
					cb := big.NewInt(int64(rng.Intn(1000))).FillBytes(make([]byte, 6))
					rec, err := NewRecord(id, []byte(bucketName(rng.Intn(bucketFan))), 48, 1, cb, []byte("put"))
					if err != nil {
						t.Errorf("NewRecord: %v", err)
						return
					}
					s.Put(rec)
				case 11:
					last := profile.ID(0)
					if err := s.ForEachEntry(func(e Entry) error {
						if e.ID <= last {
							return fmt.Errorf("ID %d after %d", e.ID, last)
						}
						last = e.ID
						return nil
					}); err != nil {
						t.Errorf("ForEachEntry: %v", err)
					}
				default:
					_ = s.NumUsers()
					_ = s.NumBuckets()
					_ = s.BucketSize([]byte(bucketName(rng.Intn(bucketFan))))
					_ = s.BucketStats()
				}
				ops.Add(1)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(stressDeadline):
		t.Fatalf("workers still running after %v (%d of %d ops done): a method is blocked on the store lock",
			stressDeadline, ops.Load(), workers*opsPerG)
	}
	if got := ops.Load(); got != workers*opsPerG {
		t.Fatalf("completed %d ops, want %d", got, workers*opsPerG)
	}

	// Invariants after the dust settles: the ID directory and the buckets
	// agree exactly (no lost entries, no duplicates, no strays).
	stats := s.BucketStats()
	if stats.Users != s.NumUsers() {
		t.Errorf("buckets hold %d users, directory holds %d", stats.Users, s.NumUsers())
	}
	if stats.Buckets != s.NumBuckets() {
		t.Errorf("BucketStats sees %d buckets, NumBuckets %d", stats.Buckets, s.NumBuckets())
	}
	// Every surviving user is findable and its bucket is consistent.
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(&buf)
	if err != nil {
		t.Fatalf("post-stress snapshot does not restore: %v", err)
	}
	if restored.NumUsers() != s.NumUsers() {
		t.Errorf("restored %d users, live store has %d", restored.NumUsers(), s.NumUsers())
	}
}

// TestStressRemoveAllThenEmpty interleaves uploads and removes to a single
// contended bucket and checks the store drains to empty — the bucket
// cleanup path under contention.
func TestStressRemoveAllThenEmpty(t *testing.T) {
	s := NewServer()
	const n = 200
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				id := profile.ID(1 + g*n + i)
				_ = s.Upload(entry(id, "hot", int64(i)))
				_, _ = s.Match(id, 2)
				_ = s.Remove(id)
			}
		}(g)
	}
	wg.Wait()
	if got := s.NumUsers(); got != 0 {
		t.Errorf("NumUsers = %d after removing everything", got)
	}
	if got := s.NumBuckets(); got != 0 {
		t.Errorf("NumBuckets = %d after removing everything (empty bucket not reaped)", got)
	}
}
