// Cluster partition hashing: a STABLE hash over the bucket key space.
//
// The router and every node must compute the identical owner for a
// bucket, across processes, restarts and machines, or uploads and queries
// land on different partitions. PartitionHash is therefore a fixed,
// documented function of the raw h(Kup) bytes with no per-process state.
//
// The function is FNV-1a (64-bit), chosen for being trivially stable
// (constants are in the function, not a seed file), dependency-free and
// fast. It does NOT need to resist hash flooding: bucket keys are OPRF
// outputs — effectively uniform digests an adversary cannot shape without
// controlling the server's RSA key — so a seeded hash would buy nothing.
package match

// FNV-1a 64-bit parameters (FNV is public domain; see RFC draft
// draft-eastlake-fnv). Fixed forever: a cluster's partition map is fixed
// for its life and nothing moves stored buckets between nodes, so
// changing them would strand every bucket on the wrong node.
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

// PartitionHash returns the stable 64-bit partition hash of a bucket key
// (the profile-key hash h(Kup)). Every process — router, leader, follower,
// tooling — computes the same value for the same bytes, which is the
// property cluster ownership is built on: a bucket stays on the node it
// was first placed on for the cluster's life.
func PartitionHash(keyHash []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, b := range keyHash {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

// ForEachEntry calls fn with every stored record in ascending user-ID
// order — the same deterministic order Snapshot writes, under the read
// lock for the whole walk, so the walk is one consistent view. Used by
// the server's snapshot import and a follower's snapshot install. Each
// Entry is decoded afresh and shares no memory with the store. fn must
// not call back into the store (the read lock is held); a non-nil error
// aborts the walk.
func (s *Server) ForEachEntry(fn func(Entry) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, rec := range s.sortedRecords() {
		e, err := rec.entry()
		if err != nil {
			return err
		}
		if err := fn(e); err != nil {
			return err
		}
	}
	return nil
}
