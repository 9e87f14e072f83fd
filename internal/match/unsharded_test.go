package match

import (
	"errors"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"smatch/internal/profile"
)

// Store is the matching interface satisfied by both the skiplist Server
// and the slice-based Unsharded reference; equivalence tests and benchmarks run
// the same workload against either.
type Store interface {
	Upload(Entry) error
	Remove(profile.ID) error
	Match(id profile.ID, k int) ([]Result, error)
	MatchProbe(id profile.ID, altKeyHashes [][]byte, k int) ([]Result, error)
	MatchMaxDistance(id profile.ID, maxDist *big.Int) ([]Result, error)
	NumUsers() int
	NumBuckets() int
	BucketSize(keyHash []byte) int
}

// Unsharded is the historical slice-based store: one global lock, one
// byID map, one bucket map of sorted slices. It is the tests' reference
// implementation — the equivalence, churn and probe suites assert the
// skiplist-indexed Server returns identical results — and the baseline
// BenchmarkStore* measures the Server against. It
// shares no record code with the Server: its order sums are big.Ints
// computed from the entries it is given.
type Unsharded struct {
	mu      sync.RWMutex
	byID    map[profile.ID]*refRec
	buckets map[string][]*refRec // key hash -> entries sorted by (order sum, ID)
}

// refRec is an uploaded Entry with its big.Int order sum.
type refRec struct {
	Entry
	orderSum *big.Int
}

// NewUnsharded returns an empty single-lock matching store.
func NewUnsharded() *Unsharded {
	return &Unsharded{
		byID:    make(map[profile.ID]*refRec),
		buckets: make(map[string][]*refRec),
	}
}

// sliceSearch returns the position of the first entry whose (order sum,
// ID) key is >= rec's. Keys are unique per bucket (IDs are unique), so
// this is rec's exact slot when rec is filed.
func sliceSearch(bucket []*refRec, rec *refRec) int {
	return sort.Search(len(bucket), func(i int) bool {
		c := bucket[i].orderSum.Cmp(rec.orderSum)
		return c > 0 || (c == 0 && bucket[i].ID >= rec.ID)
	})
}

// insertSorted files rec into its bucket, keeping the bucket sorted by
// (order sum, ID) — the same total order the Server's skiplist index uses,
// so the two implementations return identical result orderings.
func insertSorted(buckets map[string][]*refRec, rec *refRec) {
	key := string(rec.KeyHash)
	bucket := buckets[key]
	pos := sliceSearch(bucket, rec)
	bucket = append(bucket, nil)
	copy(bucket[pos+1:], bucket[pos:])
	bucket[pos] = rec
	buckets[key] = bucket
}

// removeSorted unfiles rec from its bucket: an exact (order sum, ID)
// binary search, verified by pointer. The vacated tail slot is nilled —
// the left-shifting removal otherwise leaves a stale duplicate of the last
// element in the backing array past len, pinning the removed record's
// Chain and Auth against GC under re-upload/remove churn. A pointer
// mismatch at the computed slot means the directory and the bucket
// disagree; it is counted rather than silently ignored.
func removeSorted(buckets map[string][]*refRec, rec *refRec) {
	key := string(rec.KeyHash)
	bucket := buckets[key]
	i := sliceSearch(bucket, rec)
	if i >= len(bucket) || bucket[i] != rec {
		inconsistencies.Add(1)
		return
	}
	copy(bucket[i:], bucket[i+1:])
	bucket[len(bucket)-1] = nil
	bucket = bucket[:len(bucket)-1]
	if len(bucket) == 0 {
		delete(buckets, key)
	} else {
		buckets[key] = bucket
	}
}

// Upload stores or replaces a user's encrypted profile.
func (s *Unsharded) Upload(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	rec := &refRec{Entry: e, orderSum: e.Chain.OrderSum()}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.byID[e.ID]; ok {
		removeSorted(s.buckets, old)
	}
	s.byID[e.ID] = rec
	insertSorted(s.buckets, rec)
	return nil
}

// Remove deletes a user's record.
func (s *Unsharded) Remove(id profile.ID) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.byID[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	removeSorted(s.buckets, rec)
	delete(s.byID, id)
	return nil
}

// NumUsers returns the number of stored profiles.
func (s *Unsharded) NumUsers() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byID)
}

// Match returns the k users nearest to the querier in the querier's own
// bucket.
func (s *Unsharded) Match(id profile.ID, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("match: non-positive k=%d", k)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	me, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	return refNearest(s.buckets[string(me.KeyHash)], me, k)
}

// refNearest expands outward from the querier's slot in its sorted bucket,
// picking the k smallest |order-sum difference|s; ties between the two
// directions prefer the lower side.
func refNearest(bucket []*refRec, me *refRec, k int) ([]Result, error) {
	pos := sliceSearch(bucket, me)
	if pos >= len(bucket) || bucket[pos] != me {
		inconsistencies.Add(1)
		return nil, fmt.Errorf("%w: user %d missing from its bucket slot", ErrInconsistent, me.ID)
	}
	results := make([]Result, 0, k)
	lo, hi := pos-1, pos+1
	var dLo, dHi big.Int
	for len(results) < k && (lo >= 0 || hi < len(bucket)) {
		var pick *refRec
		switch {
		case lo < 0:
			pick, hi = bucket[hi], hi+1
		case hi >= len(bucket):
			pick, lo = bucket[lo], lo-1
		default:
			dLo.Sub(me.orderSum, bucket[lo].orderSum)
			dHi.Sub(bucket[hi].orderSum, me.orderSum)
			if dLo.CmpAbs(&dHi) <= 0 {
				pick, lo = bucket[lo], lo-1
			} else {
				pick, hi = bucket[hi], hi+1
			}
		}
		results = append(results, Result{ID: pick.ID, Auth: pick.Auth})
	}
	return results, nil
}

// MatchProbe unions the querier's bucket with the alternate buckets and
// returns the k globally nearest candidates, ties broken by ID (same
// deterministic ordering contract as Server.MatchProbe).
func (s *Unsharded) MatchProbe(id profile.ID, altKeyHashes [][]byte, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("match: non-positive k=%d", k)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	me, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	keys := map[string]struct{}{string(me.KeyHash): {}}
	for _, kh := range altKeyHashes {
		keys[string(kh)] = struct{}{}
	}
	pool := make([]scored, 0)
	for key := range keys {
		pool = appendScored(pool, s.buckets[key], me)
	}
	return rankScored(pool, k), nil
}

// MatchMaxDistance returns every same-bucket user within maxDist, in
// ascending (order sum, ID) order — the full linear scan the Server's
// range seek is pinned against.
func (s *Unsharded) MatchMaxDistance(id profile.ID, maxDist *big.Int) ([]Result, error) {
	if maxDist == nil || maxDist.Sign() < 0 {
		return nil, errors.New("match: negative or nil distance bound")
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	me, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	var results []Result
	for _, rec := range s.buckets[string(me.KeyHash)] {
		if rec == me {
			continue
		}
		d := new(big.Int).Sub(rec.orderSum, me.orderSum)
		if d.CmpAbs(maxDist) <= 0 {
			results = append(results, Result{ID: rec.ID, Auth: rec.Auth})
		}
	}
	return results, nil
}

// BucketSize reports how many users share the given key hash.
func (s *Unsharded) BucketSize(keyHash []byte) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.buckets[string(keyHash)])
}

// NumBuckets reports the number of distinct profile-key hashes stored.
func (s *Unsharded) NumBuckets() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.buckets)
}

// scored is a candidate with its absolute order-sum distance (the
// reference store's full-scan ranking).
type scored struct {
	rec  *refRec
	dist *big.Int
}

func appendScored(pool []scored, bucket []*refRec, me *refRec) []scored {
	// One backing array for every distance in this bucket instead of one
	// heap allocation per candidate. Capacity is exact and indexed, never
	// append-grown: a realloc would orphan the *big.Int pointers already
	// stored in pool.
	dists := make([]big.Int, len(bucket))
	n := 0
	for _, rec := range bucket {
		if rec == me {
			continue
		}
		d := &dists[n]
		n++
		d.Sub(rec.orderSum, me.orderSum)
		pool = append(pool, scored{rec: rec, dist: d.Abs(d)})
	}
	return pool
}

// rankScored sorts candidates by (distance, ID) — the ID tie-break makes
// probe results deterministic even though candidates are gathered from an
// unordered map of buckets — and returns the top k.
func rankScored(pool []scored, k int) []Result {
	sort.Slice(pool, func(i, j int) bool {
		if c := pool[i].dist.Cmp(pool[j].dist); c != 0 {
			return c < 0
		}
		return pool[i].rec.ID < pool[j].rec.ID
	})
	if k > len(pool) {
		k = len(pool)
	}
	results := make([]Result, k)
	for i := 0; i < k; i++ {
		results[i] = Result{ID: pool[i].rec.ID, Auth: pool[i].rec.Auth}
	}
	return results
}

// Both implementations satisfy Store.
var (
	_ Store = (*Server)(nil)
	_ Store = (*Unsharded)(nil)
)
