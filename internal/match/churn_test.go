package match

import (
	"fmt"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"smatch/internal/profile"
)

// TestChurnEquivalence storms both stores with an identical interleaved
// sequence of uploads, re-uploads (re-key and same-bucket moves), removes,
// and all three query flavors, asserting the skiplist Server and the
// slice-based Unsharded reference return byte-identical results — same
// IDs, same Auth, same ORDER — and agreeing errors at every step. Sums are
// drawn from a narrow range so (sum, ID) tie-breaks are constantly
// exercised; run under -race this also shakes the lock discipline via the
// stress suite's concurrent cousin.
func TestChurnEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			churnStorm(t, seed, 4000)
		})
	}
}

func churnStorm(t *testing.T, seed int64, steps int) {
	t.Helper()
	keys := []string{"bucket-a", "bucket-b", "bucket-c", "bucket-d"}
	churnStormWith(t, seed, steps, keys,
		func(rng *rand.Rand, id profile.ID) Entry {
			return entry(id, keys[rng.Intn(len(keys))], int64(rng.Intn(64)))
		},
		func(rng *rand.Rand) *big.Int { return big.NewInt(int64(rng.Intn(32))) })
}

// churnStormWith is the storm body, parameterized over the entry and
// distance generators so the weighted suite can drive the identical
// interleaving with multi-limb order sums.
func churnStormWith(t *testing.T, seed int64, steps int, keys []string,
	randEntryFor func(rng *rand.Rand, id profile.ID) Entry,
	randDist func(rng *rand.Rand) *big.Int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	inconsistenciesBefore := IndexInconsistencies()
	server := NewServer()
	reference := NewUnsharded()
	const maxID = 200
	live := map[profile.ID]bool{}
	var liveIDs []profile.ID // refreshed lazily; ordering does not matter

	pickLive := func() (profile.ID, bool) {
		if len(live) == 0 {
			return 0, false
		}
		liveIDs = liveIDs[:0]
		for id := range live {
			liveIDs = append(liveIDs, id)
		}
		return liveIDs[rng.Intn(len(liveIDs))], true
	}
	randEntry := func(id profile.ID) Entry { return randEntryFor(rng, id) }
	check := func(step int, op string, a, b []Result, errA, errB error) {
		t.Helper()
		if (errA == nil) != (errB == nil) {
			t.Fatalf("step %d %s: server err=%v, reference err=%v", step, op, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d %s diverged:\n server:   %v\n reference: %v", step, op, a, b)
		}
	}

	for step := 0; step < steps; step++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // upload: fresh ID or an overwrite of a live one
			id := profile.ID(rng.Intn(maxID) + 1)
			e := randEntry(id)
			errA, errB := server.Upload(e), reference.Upload(cloneEntry(e))
			check(step, "upload", nil, nil, errA, errB)
			live[id] = true
		case 3: // re-upload a live ID, biased toward same-sum idempotent moves
			id, ok := pickLive()
			if !ok {
				continue
			}
			e := randEntry(id)
			errA, errB := server.Upload(e), reference.Upload(cloneEntry(e))
			check(step, "re-upload", nil, nil, errA, errB)
		case 4: // remove: sometimes a live ID, sometimes a missing one
			id := profile.ID(rng.Intn(maxID) + 1)
			errA, errB := server.Remove(id), reference.Remove(id)
			check(step, "remove", nil, nil, errA, errB)
			delete(live, id)
		case 5, 6: // kNN match
			id, ok := pickLive()
			if !ok {
				continue
			}
			k := rng.Intn(12) + 1
			a, errA := server.Match(id, k)
			b, errB := reference.Match(id, k)
			check(step, "match", a, b, errA, errB)
		case 7: // multi-probe across a random alternate-bucket subset
			id, ok := pickLive()
			if !ok {
				continue
			}
			var alts [][]byte
			for _, key := range keys {
				if rng.Intn(2) == 0 {
					alts = append(alts, []byte(key))
				}
			}
			k := rng.Intn(12) + 1
			a, errA := server.MatchProbe(id, alts, k)
			b, errB := reference.MatchProbe(id, alts, k)
			check(step, "probe", a, b, errA, errB)
		default: // max-distance range
			id, ok := pickLive()
			if !ok {
				continue
			}
			d := randDist(rng)
			a, errA := server.MatchMaxDistance(id, d)
			b, errB := reference.MatchMaxDistance(id, d)
			check(step, "maxdist", a, b, errA, errB)
		}
	}
	if server.NumUsers() != reference.NumUsers() || server.NumBuckets() != reference.NumBuckets() {
		t.Fatalf("final shape diverged: %d/%d users, %d/%d buckets",
			server.NumUsers(), reference.NumUsers(), server.NumBuckets(), reference.NumBuckets())
	}
	if n := IndexInconsistencies() - inconsistenciesBefore; n != 0 {
		t.Fatalf("churn tripped %d index inconsistencies", n)
	}
}

// cloneEntry deep-copies an entry so the two stores cannot share Auth or
// chain backing arrays (aliasing would mask a mutation bug in one store).
func cloneEntry(e Entry) Entry {
	c := e
	c.Auth = append([]byte(nil), e.Auth...)
	c.KeyHash = append([]byte(nil), e.KeyHash...)
	return c
}

// TestMatchAllocsConstant pins the hot-path allocation contract: Match
// allocates a small CONSTANT number of objects (result slice + two limb
// scratch buffers), not per-candidate — the same query against a 100×
// bigger bucket must not allocate more.
func TestMatchAllocsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is noisy under -short harnesses")
	}
	measure := func(n int) float64 {
		s := NewServer()
		for i := 1; i <= n; i++ {
			if err := s.Upload(entry(profile.ID(i), "big", int64(i*3))); err != nil {
				t.Fatal(err)
			}
		}
		id := profile.ID(n / 2)
		return testing.AllocsPerRun(200, func() {
			if _, err := s.Match(id, 16); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := measure(100), measure(10000)
	if small > 8 {
		t.Errorf("Match allocates %.1f objects/op, want a small constant (<= 8)", small)
	}
	if large > small {
		t.Errorf("Match allocations grew with bucket size: %.1f at n=100 vs %.1f at n=10000", small, large)
	}
}
