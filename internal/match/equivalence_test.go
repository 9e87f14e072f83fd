package match

import (
	"bytes"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"smatch/internal/profile"
)

// TestShardedEquivalentToSingleLock replays one deterministic golden
// workload — uploads, re-uploads across buckets, removes — against both
// the skiplist Server and the slice-based Unsharded reference, then
// asserts every query flavor returns byte-identical results on both. This
// pins the skiplist store to the seed store's observable behavior.
func TestShardedEquivalentToSingleLock(t *testing.T) {
	server := NewServer()
	single := NewUnsharded()
	apply := func(op func(Store) error) {
		t.Helper()
		errA, errB := op(server), op(single)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("stores disagree on an op: server=%v single=%v", errA, errB)
		}
	}

	// Golden dataset: deterministic pseudo-random workload, heavy on
	// order-sum ties and bucket moves.
	rng := rand.New(rand.NewSource(42))
	const users = 300
	buckets := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := 0; i < 1200; i++ {
		id := profile.ID(1 + rng.Intn(users))
		switch rng.Intn(8) {
		case 0:
			apply(func(s Store) error { return s.Remove(id) })
		default:
			e := entry(id, buckets[rng.Intn(len(buckets))], int64(rng.Intn(50))) // many ties
			apply(func(s Store) error { return s.Upload(e) })
		}
	}

	if server.NumUsers() != single.NumUsers() {
		t.Fatalf("NumUsers: server=%d single=%d", server.NumUsers(), single.NumUsers())
	}
	if server.NumBuckets() != single.NumBuckets() {
		t.Fatalf("NumBuckets: server=%d single=%d", server.NumBuckets(), single.NumBuckets())
	}
	for _, b := range buckets {
		if a, c := server.BucketSize([]byte(b)), single.BucketSize([]byte(b)); a != c {
			t.Fatalf("BucketSize(%s): server=%d single=%d", b, a, c)
		}
	}

	sameResults := func(what string, a, b []Result, errA, errB error) {
		t.Helper()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: server err=%v single err=%v", what, errA, errB)
		}
		if errA != nil {
			return
		}
		if len(a) != len(b) {
			t.Fatalf("%s: server returned %v, single %v", what, resultIDs(a), resultIDs(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || !bytes.Equal(a[i].Auth, b[i].Auth) {
				t.Fatalf("%s: result %d differs: server %v, single %v",
					what, i, resultIDs(a), resultIDs(b))
			}
		}
	}

	for id := profile.ID(1); id <= users; id++ {
		for _, k := range []int{1, 3, 10} {
			a, errA := server.Match(id, k)
			b, errB := single.Match(id, k)
			sameResults(fmt.Sprintf("Match(%d,%d)", id, k), a, b, errA, errB)
		}
		alts := [][]byte{[]byte("alpha"), []byte("gamma"), []byte("nope")}
		a, errA := server.MatchProbe(id, alts, 7)
		b, errB := single.MatchProbe(id, alts, 7)
		sameResults(fmt.Sprintf("MatchProbe(%d)", id), a, b, errA, errB)

		a, errA = server.MatchMaxDistance(id, big.NewInt(9))
		b, errB = single.MatchMaxDistance(id, big.NewInt(9))
		sameResults(fmt.Sprintf("MatchMaxDistance(%d)", id), a, b, errA, errB)
	}
}

func resultIDs(rs []Result) []profile.ID { return idsOf(rs) }
