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
// the sharded Server and the single-lock Unsharded reference, then asserts
// every query flavor returns byte-identical results on both. This pins the
// sharded rewrite to the seed store's observable behavior.
func TestShardedEquivalentToSingleLock(t *testing.T) {
	sharded := newServerShards(16)
	single := NewUnsharded()
	apply := func(op func(Store) error) {
		t.Helper()
		errA, errB := op(sharded), op(single)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("stores disagree on an op: sharded=%v single=%v", errA, errB)
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

	if sharded.NumUsers() != single.NumUsers() {
		t.Fatalf("NumUsers: sharded=%d single=%d", sharded.NumUsers(), single.NumUsers())
	}
	if sharded.NumBuckets() != single.NumBuckets() {
		t.Fatalf("NumBuckets: sharded=%d single=%d", sharded.NumBuckets(), single.NumBuckets())
	}
	for _, b := range buckets {
		if a, c := sharded.BucketSize([]byte(b)), single.BucketSize([]byte(b)); a != c {
			t.Fatalf("BucketSize(%s): sharded=%d single=%d", b, a, c)
		}
	}

	sameResults := func(what string, a, b []Result, errA, errB error) {
		t.Helper()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: sharded err=%v single err=%v", what, errA, errB)
		}
		if errA != nil {
			return
		}
		if len(a) != len(b) {
			t.Fatalf("%s: sharded returned %v, single %v", what, resultIDs(a), resultIDs(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID || !bytes.Equal(a[i].Auth, b[i].Auth) {
				t.Fatalf("%s: result %d differs: sharded %v, single %v",
					what, i, resultIDs(a), resultIDs(b))
			}
		}
	}

	for id := profile.ID(1); id <= users; id++ {
		for _, k := range []int{1, 3, 10} {
			a, errA := sharded.Match(id, k)
			b, errB := single.Match(id, k)
			sameResults(fmt.Sprintf("Match(%d,%d)", id, k), a, b, errA, errB)
		}
		alts := [][]byte{[]byte("alpha"), []byte("gamma"), []byte("nope")}
		a, errA := sharded.MatchProbe(id, alts, 7)
		b, errB := single.MatchProbe(id, alts, 7)
		sameResults(fmt.Sprintf("MatchProbe(%d)", id), a, b, errA, errB)

		a, errA = sharded.MatchMaxDistance(id, big.NewInt(9))
		b, errB = single.MatchMaxDistance(id, big.NewInt(9))
		sameResults(fmt.Sprintf("MatchMaxDistance(%d)", id), a, b, errA, errB)
	}
}

// TestShardCountDoesNotChangeResults runs the same workload at 1, 2 and 64
// shards: shard geometry must be invisible to callers.
func TestShardCountDoesNotChangeResults(t *testing.T) {
	build := func(shards int) *Server {
		s := newServerShards(shards)
		for i := 1; i <= 100; i++ {
			must(t, s.Upload(entry(profile.ID(i), fmt.Sprintf("b%d", i%5), int64(i%13))))
		}
		return s
	}
	ref := build(1)
	for _, shards := range []int{2, 64} {
		s := build(shards)
		for id := profile.ID(1); id <= 100; id++ {
			want, err1 := ref.MatchProbe(id, [][]byte{[]byte("b0"), []byte("b3")}, 6)
			got, err2 := s.MatchProbe(id, [][]byte{[]byte("b0"), []byte("b3")}, 6)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("id %d: errs %v vs %v", id, err1, err2)
			}
			if fmt.Sprint(resultIDs(want)) != fmt.Sprint(resultIDs(got)) {
				t.Fatalf("id %d at %d shards: %v, want %v",
					id, shards, resultIDs(got), resultIDs(want))
			}
		}
	}
}

func resultIDs(rs []Result) []profile.ID { return idsOf(rs) }
