package match

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

// fakeChain builds a chain whose order sum is exactly sum, so tests can
// control the server's view directly.
func fakeChain(sum int64) *chain.Chain {
	return &chain.Chain{Cts: []*big.Int{big.NewInt(sum)}, CtBits: 48}
}

func entry(id profile.ID, keyHash string, sum int64) Entry {
	return Entry{
		ID:      id,
		KeyHash: []byte(keyHash),
		Chain:   fakeChain(sum),
		Auth:    []byte(fmt.Sprintf("auth-%d", id)),
	}
}

func TestUploadValidation(t *testing.T) {
	s := NewServer()
	cases := []struct {
		name string
		e    Entry
	}{
		{"zero ID", Entry{KeyHash: []byte("k"), Chain: fakeChain(1)}},
		{"empty key hash", Entry{ID: 1, Chain: fakeChain(1)}},
		{"nil chain", Entry{ID: 1, KeyHash: []byte("k")}},
		{"empty chain", Entry{ID: 1, KeyHash: []byte("k"), Chain: &chain.Chain{}}},
		// One more than the snapshot's uint16 attribute count holds.
		{"65536 attributes", Entry{ID: 1, KeyHash: []byte("k"), Chain: zeroChain(1<<16, 8)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := s.Upload(tc.e); err == nil {
				t.Error("invalid entry accepted")
			}
		})
	}
}

func zeroChain(d int, ctBits uint) *chain.Chain {
	cts := make([]*big.Int, d)
	for i := range cts {
		cts[i] = new(big.Int)
	}
	return &chain.Chain{Cts: cts, CtBits: ctBits}
}

func TestUploadAndCounts(t *testing.T) {
	s := NewServer()
	for i := 1; i <= 5; i++ {
		if err := s.Upload(entry(profile.ID(i), "bucket-a", int64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Upload(entry(6, "bucket-b", 10)); err != nil {
		t.Fatal(err)
	}
	if got := s.NumUsers(); got != 6 {
		t.Errorf("NumUsers = %d, want 6", got)
	}
	if got := s.NumBuckets(); got != 2 {
		t.Errorf("NumBuckets = %d, want 2", got)
	}
	if got := s.BucketSize([]byte("bucket-a")); got != 5 {
		t.Errorf("BucketSize(a) = %d, want 5", got)
	}
}

func TestUploadReplacesExisting(t *testing.T) {
	s := NewServer()
	must(t, s.Upload(entry(1, "bucket-a", 10)))
	must(t, s.Upload(entry(1, "bucket-b", 20))) // periodic re-upload, new key
	if got := s.NumUsers(); got != 1 {
		t.Errorf("NumUsers = %d, want 1", got)
	}
	if got := s.BucketSize([]byte("bucket-a")); got != 0 {
		t.Errorf("old bucket still has %d entries", got)
	}
	if got := s.BucketSize([]byte("bucket-b")); got != 1 {
		t.Errorf("new bucket has %d entries, want 1", got)
	}
}

func TestMatchReturnsNearestByOrderSum(t *testing.T) {
	s := NewServer()
	// Querier at sum 50; neighbors at 10, 40, 45, 100, 300.
	sums := map[profile.ID]int64{1: 10, 2: 40, 3: 45, 4: 100, 5: 300, 9: 50}
	for id, sum := range sums {
		must(t, s.Upload(entry(id, "b", sum)))
	}
	results, err := s.Match(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	got := idsOf(results)
	// Nearest to 50: 45 (d=5), 40 (d=10), 10 (d=40).
	want := map[profile.ID]bool{3: true, 2: true, 1: true}
	if len(got) != 3 {
		t.Fatalf("got %d results, want 3", len(got))
	}
	for _, id := range got {
		if !want[id] {
			t.Errorf("unexpected result %d (want members of %v)", id, want)
		}
	}
}

func TestMatchExcludesSelf(t *testing.T) {
	s := NewServer()
	must(t, s.Upload(entry(1, "b", 10)))
	must(t, s.Upload(entry(2, "b", 11)))
	results, err := s.Match(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.ID == 1 {
			t.Error("querier returned in her own results")
		}
	}
}

func TestMatchOnlySameBucket(t *testing.T) {
	// The EXTRA step: users under other key hashes are invisible.
	s := NewServer()
	must(t, s.Upload(entry(1, "mine", 10)))
	must(t, s.Upload(entry(2, "mine", 12)))
	must(t, s.Upload(entry(3, "other", 11)))
	results, err := s.Match(1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != 2 {
		t.Errorf("results = %v, want only user 2", idsOf(results))
	}
}

func TestMatchFewerThanK(t *testing.T) {
	s := NewServer()
	must(t, s.Upload(entry(1, "b", 10)))
	must(t, s.Upload(entry(2, "b", 20)))
	results, err := s.Match(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Errorf("got %d results, want 1", len(results))
	}
}

func TestMatchErrors(t *testing.T) {
	s := NewServer()
	must(t, s.Upload(entry(1, "b", 10)))
	if _, err := s.Match(99, 5); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user: err = %v", err)
	}
	if _, err := s.Match(1, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestMatchTieOrderSums(t *testing.T) {
	// Users with identical order sums must all be reachable and the
	// querier still excluded.
	s := NewServer()
	for i := 1; i <= 4; i++ {
		must(t, s.Upload(entry(profile.ID(i), "b", 7)))
	}
	results, err := s.Match(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	seen := map[profile.ID]bool{}
	for _, r := range results {
		if r.ID == 2 {
			t.Error("querier in results despite tie")
		}
		if seen[r.ID] {
			t.Errorf("duplicate result %d", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestMatchResultsCarryAuth(t *testing.T) {
	s := NewServer()
	must(t, s.Upload(entry(1, "b", 10)))
	must(t, s.Upload(entry(2, "b", 11)))
	results, _ := s.Match(1, 1)
	if string(results[0].Auth) != "auth-2" {
		t.Errorf("auth blob = %q, want auth-2", results[0].Auth)
	}
}

func TestMatchMaxDistance(t *testing.T) {
	s := NewServer()
	sums := map[profile.ID]int64{1: 100, 2: 105, 3: 120, 4: 90, 5: 300}
	for id, sum := range sums {
		must(t, s.Upload(entry(id, "b", sum)))
	}
	results, err := s.MatchMaxDistance(1, big.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	got := map[profile.ID]bool{}
	for _, r := range results {
		got[r.ID] = true
	}
	if !got[2] || !got[4] || got[3] || got[5] || got[1] {
		t.Errorf("MaxDistance(10) returned %v, want {2,4}", idsOf(results))
	}
	if _, err := s.MatchMaxDistance(1, nil); err == nil {
		t.Error("nil bound accepted")
	}
	if _, err := s.MatchMaxDistance(77, big.NewInt(1)); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("unknown user: err = %v", err)
	}
}

func TestRemove(t *testing.T) {
	s := NewServer()
	must(t, s.Upload(entry(1, "b", 10)))
	must(t, s.Upload(entry(2, "b", 11)))
	if err := s.Remove(1); err != nil {
		t.Fatal(err)
	}
	if s.NumUsers() != 1 {
		t.Error("user not removed")
	}
	if err := s.Remove(1); !errors.Is(err, ErrUnknownUser) {
		t.Errorf("double remove: err = %v", err)
	}
	// Bucket cleanup on last removal.
	if err := s.Remove(2); err != nil {
		t.Fatal(err)
	}
	if s.NumBuckets() != 0 {
		t.Error("empty bucket not deleted")
	}
}

func TestRemoveWithinEqualSumRun(t *testing.T) {
	// removeSorted binary-searches to the run of equal order sums and scans
	// only that run; every member of a long tie run (plus entries on both
	// sides of it) must still be removable, in any order.
	s := NewServer()
	must(t, s.Upload(entry(1, "b", 5)))
	for i := 2; i <= 9; i++ {
		must(t, s.Upload(entry(profile.ID(i), "b", 50))) // 8-way tie
	}
	must(t, s.Upload(entry(10, "b", 500)))
	for _, id := range []profile.ID{5, 2, 9, 1, 10, 7, 3, 8, 4, 6} {
		if err := s.Remove(id); err != nil {
			t.Fatalf("Remove(%d): %v", id, err)
		}
	}
	if s.NumUsers() != 0 || s.NumBuckets() != 0 {
		t.Errorf("store not empty after removing all: %d users, %d buckets",
			s.NumUsers(), s.NumBuckets())
	}
	// Re-uploads into a fresh tie run (the re-key path also uses
	// removeSorted) keep the store consistent.
	for i := 1; i <= 4; i++ {
		must(t, s.Upload(entry(profile.ID(i), "b", 7)))
	}
	for i := 1; i <= 4; i++ {
		must(t, s.Upload(entry(profile.ID(i), "c", 7))) // move buckets
	}
	if s.BucketSize([]byte("b")) != 0 || s.BucketSize([]byte("c")) != 4 {
		t.Errorf("bucket sizes after re-key: b=%d c=%d, want 0 and 4",
			s.BucketSize([]byte("b")), s.BucketSize([]byte("c")))
	}
}

func TestConcurrentUploadAndMatch(t *testing.T) {
	s := NewServer()
	for i := 1; i <= 50; i++ {
		must(t, s.Upload(entry(profile.ID(i), "b", int64(i))))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				switch i % 3 {
				case 0:
					_ = s.Upload(entry(profile.ID(100+g*100+i), "b", int64(i)))
				case 1:
					_, _ = s.Match(profile.ID(1+i%50), 5)
				default:
					_ = s.BucketSize([]byte("b"))
				}
			}
		}(g)
	}
	wg.Wait()
}

func idsOf(rs []Result) []profile.ID {
	out := make([]profile.ID, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatchBucket10k(b *testing.B) {
	s := NewServer()
	for i := 1; i <= 10000; i++ {
		if err := s.Upload(entry(profile.ID(i), "b", int64(i*3))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Match(profile.ID(1+i%10000), 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpload(b *testing.B) {
	s := NewServer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := s.Upload(entry(profile.ID(i+1), "b", int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}
