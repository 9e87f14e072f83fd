// Package match implements the untrusted server's matching core (the
// paper's Algorithm Match): encrypted profiles are filed under their
// profile-key hash h(Kup); a query EXTRAs the bucket with the querier's key
// hash, SORTs it by the Definition-4 order sum, FINDs the querier's
// position, and returns the k nearest users with their authentication
// information.
//
// The server never sees plaintext attributes: it stores OPE ciphertext
// chains, opaque key hashes and opaque auth blobs, and compares only
// ciphertext order sums — exactly the honest-but-curious interface the
// security analysis assumes.
//
// # Sharding
//
// Buckets are independent in the paper's cost model (each query touches
// only the buckets under its key hashes), so the store is lock-striped:
// profile records are spread over N bucket shards keyed by a hash of
// h(Kup), each shard owning its own bucket map and RWMutex, plus N ID
// stripes (keyed by user ID) that map IDs to records. Uploads and queries
// against different shards never contend.
//
// Lock-ordering rule (deadlock freedom): an operation takes at most one
// ID-stripe lock, always BEFORE any bucket-shard lock; when an operation
// needs several bucket shards (a re-keying Upload, or a multi-bucket
// MatchProbe), it acquires them in ascending shard index. Snapshot, which
// walks every stripe, likewise locks stripes in ascending index.
//
// # Ordered index
//
// Each bucket in the sharded Server is an ordered skiplist keyed on
// (order sum, user ID) — see ordindex.go — so the OPE order-preserving
// property is exploited directly: Upload and Remove are O(log n) with no
// memmove, Match seeks the querier and expands bidirectionally,
// MatchMaxDistance seeks [sum-d, sum+d] and walks, and MatchProbe merges
// per-bucket bounded kNN walks through a k-way heap. Order sums live as
// flat uint64 limbs (ordsum.go); no big.Int is touched past the chain
// boundary. Ties order by ascending user ID, so identical queries return
// identical orderings; the package tests pin the index against a
// slice-based reference store that orders the same way.
//
// # Records
//
// The store owns its records. Upload copies the chain, as its fixed-width
// big-endian bytes, and the auth blob into one immutable byte slice per
// user, beside the order sum in limbs; no big.Int and no caller memory is
// reachable from a record, so mutating an Entry after Upload changes
// nothing stored. NewRecord builds the same record straight from an
// upload's wire bytes, with no big.Int, and Put files it; the server's
// write path and WAL replay take that route. Results alias the stored
// auth bytes and must not be written. ForEachEntry decodes records back
// into fresh Entry copies.
package match

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

// Common errors.
var (
	ErrUnknownUser = errors.New("match: unknown user")
	// ErrInconsistent reports internal index corruption: a stored record
	// that its own bucket index cannot locate. The store surfaces it
	// instead of silently degrading (the seed code's nearest() quietly
	// excluded whichever innocent record sat at the querier's expected
	// position); every occurrence also increments IndexInconsistencies.
	ErrInconsistent = errors.New("match: store index inconsistent")
)

// inconsistencies counts detected index corruptions (see ErrInconsistent).
var inconsistencies atomic.Uint64

// IndexInconsistencies reports how many internal index inconsistencies the
// store has detected since process start. Nonzero means a bug: a record
// reachable through the ID directory was missing from (or misplaced in)
// its bucket index. Exported for the metrics endpoint.
func IndexInconsistencies() uint64 { return inconsistencies.Load() }

// Field-size limits enforced on upload and on snapshot restore. A real
// key hash is a digest (tens of bytes) and a real auth blob is one fuzzy
// commitment, so these are abuse backstops, not working limits. Keeping
// Upload and Restore in agreement guarantees every snapshot the store can
// write is a snapshot it can read back.
const (
	MaxKeyHashLen = 1 << 10
	MaxAuthLen    = 1 << 16
	MaxChainBytes = 1 << 22
)

// Entry is one user's stored record: message format (3) from the paper
// plus the verification blob.
type Entry struct {
	ID      profile.ID
	KeyHash []byte       // h(Kup): the bucket index
	Chain   *chain.Chain // E(A'_1) || ... || E(A'_d)
	Auth    []byte       // ciph_u for result verification
}

// Validate checks the entry against the store's invariants and size
// limits. Upload runs it internally; the server also runs it before
// journaling an upload to its write-ahead log, so every journaled record
// is one the store is guaranteed to accept on replay. Every ciphertext
// must be non-nil, nonnegative and at most CtBits wide: the store keeps
// the chain as fixed-width bytes, and anything else would not survive
// the round trip.
func (e Entry) Validate() error {
	if err := checkFields(e.ID, e.KeyHash, len(e.Auth)); err != nil {
		return err
	}
	if e.Chain == nil {
		return errors.New("match: empty chain")
	}
	if _, err := chainSize(e.Chain.NumAttrs(), e.Chain.CtBits); err != nil {
		return err
	}
	for i, ct := range e.Chain.Cts {
		if ct == nil || ct.Sign() < 0 || ct.BitLen() > int(e.Chain.CtBits) {
			return fmt.Errorf("match: ciphertext %d is nil, negative or wider than %d bits", i, e.Chain.CtBits)
		}
	}
	return nil
}

// checkFields enforces the limits on a record's fields around its chain.
// Validate and Restore share it, so every snapshot the store can write is
// a snapshot it can read back.
func checkFields(id profile.ID, keyHash []byte, authLen int) error {
	if id == 0 {
		return errors.New("match: zero user ID")
	}
	if len(keyHash) == 0 {
		return errors.New("match: empty key hash")
	}
	if len(keyHash) > MaxKeyHashLen {
		return fmt.Errorf("match: key hash of %d bytes exceeds limit %d", len(keyHash), MaxKeyHashLen)
	}
	if authLen > MaxAuthLen {
		return fmt.Errorf("match: auth blob of %d bytes exceeds limit %d", authLen, MaxAuthLen)
	}
	return nil
}

// ctWidth is the serialized width of one ctBits-bit ciphertext; callers
// bound ctBits first (chainSize).
func ctWidth(ctBits uint) int { return int((ctBits + 7) / 8) }

// chainSize checks a chain's geometry and returns its serialized size.
// The attribute count must fit the snapshot's uint16 field.
func chainSize(d int, ctBits uint) (int, error) {
	if d <= 0 {
		return 0, errors.New("match: empty chain")
	}
	if d > math.MaxUint16 {
		return 0, fmt.Errorf("match: chain of %d attributes exceeds limit %d", d, math.MaxUint16)
	}
	if ctBits > 8*MaxChainBytes || d*ctWidth(ctBits) > MaxChainBytes {
		return 0, fmt.Errorf("match: chain of %d %d-bit ciphertexts exceeds limit %d bytes", d, ctBits, MaxChainBytes)
	}
	return d * ctWidth(ctBits), nil
}

// stored is the store's own record of one user. blob holds the chain's d
// fixed-width big-endian ciphertexts followed by the auth blob and is
// never written after construction, so results can alias its tail. key is
// the bucket's own map key string, shared by every record in the bucket.
type stored struct {
	ID       profile.ID
	ctBits   uint32
	nAttrs   uint16
	key      string
	sumLimbs ordSum
	blob     []byte
}

// newStored is the one record constructor. blob holds d ciphertexts of
// ctBits bits each in fixed-width big-endian form, then the auth blob; the
// record takes ownership of it. Each ciphertext is range-checked on its
// bytes, the rule chain.Parse applies, and summed into limbs without a
// per-ciphertext allocation.
func newStored(id profile.ID, ctBits uint, d int, blob []byte) (*stored, error) {
	n, err := chainSize(d, ctBits)
	if err != nil {
		return nil, err
	}
	if len(blob) < n {
		return nil, fmt.Errorf("match: %d-byte record cannot hold a %d-byte chain", len(blob), n)
	}
	w := ctWidth(ctBits)
	var excess byte // the top byte's bits above ctBits
	if r := ctBits % 8; r != 0 {
		excess = 0xFF << r
	}
	sum := make(ordSum, limbsFor(ctBits, d))
	for i := 0; i < n; i += w {
		ct := blob[i : i+w]
		if ct[0]&excess != 0 {
			return nil, fmt.Errorf("match: ciphertext %d exceeds %d bits", i/w, ctBits)
		}
		for limb, end := 0, w; end > 0; limb, end = limb+1, end-8 {
			var word uint64
			if end >= 8 {
				word = binary.BigEndian.Uint64(ct[end-8 : end])
			} else {
				for _, b := range ct[:end] {
					word = word<<8 | uint64(b)
				}
			}
			addWordAt(sum, limb, word)
		}
	}
	return &stored{ID: id, ctBits: uint32(ctBits), nAttrs: uint16(d), sumLimbs: trimLimbs(sum), blob: blob}, nil
}

// record serializes a validated entry's chain and auth into one blob and
// builds the store's record from it.
func (e Entry) record() (*stored, error) {
	w := ctWidth(e.Chain.CtBits)
	n := w * e.Chain.NumAttrs()
	blob := make([]byte, n+len(e.Auth))
	for i, ct := range e.Chain.Cts {
		ct.FillBytes(blob[i*w : (i+1)*w])
	}
	copy(blob[n:], e.Auth)
	return newStored(e.ID, e.Chain.CtBits, e.Chain.NumAttrs(), blob)
}

// Record is one user's profile record in the store's own form, built from
// upload bytes by NewRecord and filed by Put. It owns its memory and is
// immutable, so the slices and sum its accessors return alias it and must
// not be written.
type Record struct {
	rec     *stored
	keyHash []byte
}

// NewRecord builds a record from an upload's wire fields: d ciphertexts of
// ctBits bits each as fixed-width big-endian bytes in chainBytes, then the
// auth blob. It accepts exactly what chain.Parse followed by
// Entry.Validate accepts, without a big.Int: field limits, chain
// geometry, the exact chain length and each ciphertext's range. keyHash,
// chainBytes and auth are copied; the record references no caller memory.
func NewRecord(id profile.ID, keyHash []byte, ctBits uint, d int, chainBytes, auth []byte) (Record, error) {
	if err := checkFields(id, keyHash, len(auth)); err != nil {
		return Record{}, err
	}
	n, err := chainSize(d, ctBits)
	if err != nil {
		return Record{}, err
	}
	if len(chainBytes) != n {
		return Record{}, fmt.Errorf("match: chain of %d bytes, want %d (d=%d, %d bits per ciphertext)", len(chainBytes), n, d, ctBits)
	}
	blob := make([]byte, n+len(auth))
	copy(blob, chainBytes)
	copy(blob[n:], auth)
	rec, err := newStored(id, ctBits, d, blob)
	if err != nil {
		return Record{}, err
	}
	return Record{rec: rec, keyHash: bytes.Clone(keyHash)}, nil
}

// ID returns the record's user ID.
func (r Record) ID() profile.ID { return r.rec.ID }

// KeyHash returns the h(Kup) the record is filed under.
func (r Record) KeyHash() []byte { return r.keyHash }

// Sum returns the record's order sum.
func (r Record) Sum() Sum { return Sum{w: r.rec.sumLimbs} }

// Auth returns the record's auth blob; like a Result's, an append to it
// copies rather than overwrites.
func (r Record) Auth() []byte { return r.rec.auth() }

func (r *stored) chainLen() int { return int(r.nAttrs) * ctWidth(uint(r.ctBits)) }

// auth returns the stored auth bytes; the slice's capacity ends at the
// blob's end, so an append by a caller copies rather than overwrites.
func (r *stored) auth() []byte { return r.blob[r.chainLen():] }

func (r *stored) result() Result { return Result{ID: r.ID, Auth: r.auth()} }

// entry decodes the record into a fresh Entry that shares no memory with
// the store.
func (r *stored) entry() (Entry, error) {
	ch, err := chain.Parse(r.blob[:r.chainLen()], int(r.nAttrs), uint(r.ctBits))
	if err != nil {
		return Entry{}, fmt.Errorf("match: decoding user %d: %w", r.ID, err)
	}
	auth := make([]byte, len(r.blob)-r.chainLen())
	copy(auth, r.auth())
	return Entry{ID: r.ID, KeyHash: []byte(r.key), Chain: ch, Auth: auth}, nil
}

// Result is one matched user as returned to the querier: ID plus the auth
// information the querier verifies with Vf.
type Result struct {
	ID   profile.ID
	Auth []byte
}

// bucketShard owns a disjoint subset of the key-hash buckets.
type bucketShard struct {
	mu      sync.RWMutex
	buckets map[string]*ordIndex // key hash (raw bytes as string) -> ordered index
}

// idStripe owns a disjoint subset of the ID -> record directory.
type idStripe struct {
	mu sync.RWMutex
	m  map[profile.ID]*stored
}

// Server is the in-memory matching store. Safe for concurrent use.
type Server struct {
	mask   uint64 // len(shards)-1; len is a power of two
	seed   maphash.Seed
	ids    []idStripe
	shards []bucketShard
}

// NewServer returns an empty matching server with the default shard count:
// the smallest power of two >= max(16, GOMAXPROCS).
func NewServer() *Server { return newServerShards(0) }

// newServerShards returns an empty matching server with n shards, rounded
// up to a power of two; n <= 0 selects the default.
func newServerShards(n int) *Server {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
		if n < 16 {
			n = 16
		}
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	s := &Server{
		mask:   uint64(shards - 1),
		seed:   maphash.MakeSeed(),
		ids:    make([]idStripe, shards),
		shards: make([]bucketShard, shards),
	}
	for i := range s.ids {
		s.ids[i].m = make(map[profile.ID]*stored)
	}
	for i := range s.shards {
		s.shards[i].buckets = make(map[string]*ordIndex)
	}
	return s
}

// NumShards reports the shard count (a power of two).
func (s *Server) NumShards() int { return len(s.shards) }

// shardIndex maps a key hash to its bucket shard. Real key hashes are
// uniformly distributed (they are h(Kup) outputs), but tests use short
// labels, so the index hashes the whole key rather than trusting its
// first bytes.
func (s *Server) shardIndex(keyHash []byte) uint64 {
	return maphash.Bytes(s.seed, keyHash) & s.mask
}

// shardOf is shardIndex for a stored key string; maphash.String and
// maphash.Bytes agree on equal content.
func (s *Server) shardOf(key string) uint64 {
	return maphash.String(s.seed, key) & s.mask
}

func (s *Server) stripe(id profile.ID) *idStripe {
	return &s.ids[uint64(id)&s.mask]
}

// bucketInsert files rec into the ordered index of the bucket under
// keyHash, creating the index on first use, and points rec.key at the
// bucket's own key string. Caller holds the shard write lock.
func bucketInsert(buckets map[string]*ordIndex, rec *stored, keyHash []byte) {
	ix := buckets[string(keyHash)]
	if ix == nil {
		ix = newOrdIndex()
		ix.key = string(keyHash)
		buckets[ix.key] = ix
	}
	rec.key = ix.key
	ix.insert(rec)
}

// bucketRemove unfiles rec from its bucket's ordered index, reaping the
// bucket when it empties. A false return means the record the ID
// directory pointed at was not in its index — corruption, counted by the
// caller. Caller holds the shard write lock.
func bucketRemove(buckets map[string]*ordIndex, rec *stored) bool {
	ix := buckets[rec.key]
	if ix == nil {
		return false
	}
	ok := ix.remove(rec)
	if ix.length == 0 {
		delete(buckets, rec.key)
	}
	return ok
}

// Upload stores or replaces a user's encrypted profile (users "update
// encrypted social profiles on the untrusted server periodically").
func (s *Server) Upload(e Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	rec, err := e.record()
	if err != nil {
		return err
	}
	s.put(rec, e.KeyHash)
	return nil
}

// Put stores or replaces a user's profile with a record built by
// NewRecord, which has already validated it.
func (s *Server) Put(r Record) { s.put(r.rec, r.keyHash) }

// put files rec under keyHash, replacing any record with the same ID.
func (s *Server) put(rec *stored, keyHash []byte) {
	newIdx := s.shardIndex(keyHash)

	st := s.stripe(rec.ID)
	st.mu.Lock()
	defer st.mu.Unlock()
	old := st.m[rec.ID]
	st.m[rec.ID] = rec

	if old == nil {
		sh := &s.shards[newIdx]
		sh.mu.Lock()
		bucketInsert(sh.buckets, rec, keyHash)
		sh.mu.Unlock()
		return
	}
	oldIdx := s.shardOf(old.key)
	// Ascending-index acquisition when the re-upload moves buckets across
	// shards (the lock-ordering rule).
	lo, hi := oldIdx, newIdx
	if lo > hi {
		lo, hi = hi, lo
	}
	s.shards[lo].mu.Lock()
	if hi != lo {
		s.shards[hi].mu.Lock()
	}
	if !bucketRemove(s.shards[oldIdx].buckets, old) {
		inconsistencies.Add(1)
	}
	bucketInsert(s.shards[newIdx].buckets, rec, keyHash)
	if hi != lo {
		s.shards[hi].mu.Unlock()
	}
	s.shards[lo].mu.Unlock()
}

// Remove deletes a user's record.
func (s *Server) Remove(id profile.ID) error {
	st := s.stripe(id)
	st.mu.Lock()
	defer st.mu.Unlock()
	rec, ok := st.m[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	sh := &s.shards[s.shardOf(rec.key)]
	sh.mu.Lock()
	if !bucketRemove(sh.buckets, rec) {
		inconsistencies.Add(1)
	}
	sh.mu.Unlock()
	delete(st.m, id)
	return nil
}

// NumUsers returns the number of stored profiles.
func (s *Server) NumUsers() int {
	n := 0
	for i := range s.ids {
		s.ids[i].mu.RLock()
		n += len(s.ids[i].m)
		s.ids[i].mu.RUnlock()
	}
	return n
}

// lookup returns the querier's record under its stripe's read lock; the
// caller must release the stripe via the returned function after it is
// done with any dependent bucket-shard reads (stripe before shard, per the
// lock-ordering rule, so Upload/Remove cannot slide the record out from
// under an in-flight query).
func (s *Server) lookup(id profile.ID) (*stored, func(), error) {
	st := s.stripe(id)
	st.mu.RLock()
	rec, ok := st.m[id]
	if !ok {
		st.mu.RUnlock()
		return nil, nil, fmt.Errorf("%w: %d", ErrUnknownUser, id)
	}
	return rec, st.mu.RUnlock, nil
}

// Match answers a profile-matching query Qq = <q, t, IDv>: it returns the
// k users nearest to the querier in Definition-4 distance among those
// filed under the same profile-key hash. The querier is excluded from her
// own results.
func (s *Server) Match(id profile.ID, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("match: non-positive k=%d", k)
	}
	me, release, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	defer release()
	sh := &s.shards[s.shardOf(me.key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return indexNearest(sh.buckets[me.key], me, k)
}

// indexNearest seeks the querier's node in its bucket index and expands
// outward along the level-0 links, picking the k entries with the smallest
// |order-sum difference| (ties between the two directions prefer the lower
// side, matching the slice reference). Self-exclusion is by node identity:
// the walk starts on either side of the querier's own node, found by exact
// (sum, ID) seek and verified by pointer — a miss is surfaced as
// ErrInconsistent instead of silently excluding whichever record sits at
// the expected position.
func indexNearest(ix *ordIndex, me *stored, k int) ([]Result, error) {
	if ix == nil {
		inconsistencies.Add(1)
		return nil, fmt.Errorf("%w: user %d has no bucket index", ErrInconsistent, me.ID)
	}
	node, _ := ix.seek(me.sumLimbs, me.ID)
	if node == nil || node.rec != me {
		inconsistencies.Add(1)
		return nil, fmt.Errorf("%w: user %d missing from its bucket index", ErrInconsistent, me.ID)
	}
	if k > ix.length-1 {
		k = ix.length - 1
	}
	results := make([]Result, 0, k)
	lo, hi := node.prev, node.next[0]
	// Two scratch buffers, reused across every expansion step: the hot
	// path allocates nothing per candidate.
	dLo := make(ordSum, 0, len(me.sumLimbs)+1)
	dHi := make(ordSum, 0, len(me.sumLimbs)+1)
	for len(results) < k {
		loOK, hiOK := lo.rec != nil, hi != nil
		var pick *stored
		switch {
		case !loOK && !hiOK:
			return results, nil
		case !loOK:
			pick, hi = hi.rec, hi.next[0]
		case !hiOK:
			pick, lo = lo.rec, lo.prev
		default:
			dLo = subLimbs(dLo, me.sumLimbs, lo.rec.sumLimbs)
			dHi = subLimbs(dHi, hi.rec.sumLimbs, me.sumLimbs)
			if cmpLimbs(dLo, dHi) <= 0 {
				pick, lo = lo.rec, lo.prev
			} else {
				pick, hi = hi.rec, hi.next[0]
			}
		}
		results = append(results, pick.result())
	}
	return results, nil
}

// MatchProbe answers a multi-probe query: the k users nearest to the
// querier drawn from her own bucket PLUS the buckets under altKeyHashes —
// the query-side multi-probe extension that recovers matches lost to
// quantization-boundary key splits (see internal/keygen's
// ProfileKeyCandidates). Results are globally ranked by order-sum
// distance, ties broken by ascending user ID so identical queries return
// identical orderings; the querier is excluded.
//
// Each probed bucket contributes only its k nearest candidates (a bounded
// bidirectional walk from the querier's seek position), and the per-bucket
// streams are merged through a k-way heap — O(log n + k) per bucket
// instead of scoring every entry of every probed bucket.
//
// Order sums from different buckets are encrypted under different profile
// keys; cross-bucket comparisons are exact in the paper's N = M
// configuration (where OPE degenerates to the identity) and approximate
// otherwise — probe results should therefore be treated as candidates and
// confirmed through Vf, which is precisely what the verification protocol
// is for.
func (s *Server) MatchProbe(id profile.ID, altKeyHashes [][]byte, k int) ([]Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("match: non-positive k=%d", k)
	}
	me, release, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	defer release()

	// Deduplicate probed key hashes, then the shards that own them; lock
	// the shards in ascending index (the lock-ordering rule for
	// multi-bucket probes).
	keys := map[string]struct{}{me.key: {}}
	for _, kh := range altKeyHashes {
		keys[string(kh)] = struct{}{}
	}
	shardSet := map[uint64]struct{}{}
	for key := range keys {
		shardSet[s.shardOf(key)] = struct{}{}
	}
	shardIdx := make([]uint64, 0, len(shardSet))
	for idx := range shardSet {
		shardIdx = append(shardIdx, idx)
	}
	sort.Slice(shardIdx, func(i, j int) bool { return shardIdx[i] < shardIdx[j] })
	for _, idx := range shardIdx {
		s.shards[idx].mu.RLock()
	}
	defer func() {
		for i := len(shardIdx) - 1; i >= 0; i-- {
			s.shards[shardIdx[i]].mu.RUnlock()
		}
	}()

	streams := make([][]probeCand, 0, len(keys))
	for key := range keys {
		ix := s.shards[s.shardOf(key)].buckets[key]
		if cands := boundedNearest(ix, me, k); len(cands) > 0 {
			streams = append(streams, cands)
		}
	}
	return mergeProbeStreams(streams, k), nil
}

// probeCand is one bounded-walk candidate with its materialized distance.
type probeCand struct {
	rec  *stored
	dist ordSum
}

// boundedNearest walks outward from the querier's seek position in one
// bucket index and returns that bucket's k nearest candidates sorted by
// (distance, ID). The walk visits O(k) entries plus any run tied with the
// k-th distance (a tie can still displace a larger ID); the querier's own
// node is excluded by pointer.
func boundedNearest(ix *ordIndex, me *stored, k int) []probeCand {
	if ix == nil {
		return nil
	}
	ge, pred := ix.seek(me.sumLimbs, me.ID)
	lo, hi := pred, ge
	if ge != nil && ge.rec == me {
		hi = ge.next[0]
	}
	dLo := make(ordSum, 0, len(me.sumLimbs)+1)
	dHi := make(ordSum, 0, len(me.sumLimbs)+1)
	var cands []probeCand
	for {
		// Defensive pointer-based self-exclusion; the cursors start on
		// either side of me's node, so this should never fire.
		for lo.rec == me {
			lo = lo.prev
		}
		for hi != nil && hi.rec == me {
			hi = hi.next[0]
		}
		loOK, hiOK := lo.rec != nil, hi != nil
		if !loOK && !hiOK {
			break
		}
		var pick *stored
		var d ordSum
		switch {
		case !loOK:
			d = subLimbs(dHi, hi.rec.sumLimbs, me.sumLimbs)
			pick, hi = hi.rec, hi.next[0]
		case !hiOK:
			d = subLimbs(dLo, me.sumLimbs, lo.rec.sumLimbs)
			pick, lo = lo.rec, lo.prev
		default:
			dLo = subLimbs(dLo, me.sumLimbs, lo.rec.sumLimbs)
			dHi = subLimbs(dHi, hi.rec.sumLimbs, me.sumLimbs)
			if cmpLimbs(dLo, dHi) <= 0 {
				d, pick, lo = dLo, lo.rec, lo.prev
			} else {
				d, pick, hi = dHi, hi.rec, hi.next[0]
			}
		}
		// Candidates arrive in nondecreasing distance, so once k are held
		// the k-th's distance bounds what can still matter; only an exact
		// tie can displace (by smaller ID), so the walk continues through
		// the tied run and stops at the first strictly farther candidate.
		if len(cands) >= k && cmpLimbs(d, cands[k-1].dist) > 0 {
			break
		}
		cands = append(cands, probeCand{rec: pick, dist: append(ordSum(nil), d...)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if c := cmpLimbs(cands[i].dist, cands[j].dist); c != 0 {
			return c < 0
		}
		return cands[i].rec.ID < cands[j].rec.ID
	})
	if len(cands) > k {
		cands = cands[:k]
	}
	return cands
}

// probeHeap is a binary min-heap of per-bucket candidate streams, keyed by
// each stream's current head (distance, ID).
type probeHeap struct {
	streams [][]probeCand // each sorted by (distance, ID)
	pos     []int
}

func (h *probeHeap) less(i, j int) bool {
	a, b := h.streams[i][h.pos[i]], h.streams[j][h.pos[j]]
	if c := cmpLimbs(a.dist, b.dist); c != 0 {
		return c < 0
	}
	return a.rec.ID < b.rec.ID
}

func (h *probeHeap) swap(i, j int) {
	h.streams[i], h.streams[j] = h.streams[j], h.streams[i]
	h.pos[i], h.pos[j] = h.pos[j], h.pos[i]
}

func (h *probeHeap) down(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.pos) && h.less(l, small) {
			small = l
		}
		if r < len(h.pos) && h.less(r, small) {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

// mergeProbeStreams k-way-merges the per-bucket (distance, ID)-sorted
// candidate streams and returns the global top k.
func mergeProbeStreams(streams [][]probeCand, k int) []Result {
	h := &probeHeap{streams: streams, pos: make([]int, len(streams))}
	for i := len(streams)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	results := make([]Result, 0, k)
	for len(h.streams) > 0 && len(results) < k {
		top := h.streams[0][h.pos[0]]
		results = append(results, top.rec.result())
		h.pos[0]++
		if h.pos[0] == len(h.streams[0]) {
			last := len(h.streams) - 1
			h.swap(0, last)
			h.streams = h.streams[:last]
			h.pos = h.pos[:last]
		}
		h.down(0)
	}
	return results
}

// MatchMaxDistance returns every same-bucket user whose Definition-4
// order-sum distance from the querier is at most maxDist (MAX-distance
// matching, the paper's other matching algorithm) — a range seek over
// [sum-d, sum+d] plus a walk, instead of a full bucket scan. Results come
// back in ascending (order sum, ID) order.
func (s *Server) MatchMaxDistance(id profile.ID, maxDist *big.Int) ([]Result, error) {
	if maxDist == nil || maxDist.Sign() < 0 {
		return nil, errors.New("match: negative or nil distance bound")
	}
	me, release, err := s.lookup(id)
	if err != nil {
		return nil, err
	}
	defer release()
	sh := &s.shards[s.shardOf(me.key)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ix := sh.buckets[me.key]
	if ix == nil {
		inconsistencies.Add(1)
		return nil, fmt.Errorf("%w: user %d has no bucket index", ErrInconsistent, me.ID)
	}
	d := limbsFromBig(maxDist)
	var lower ordSum // sum-d floored at zero
	if cmpLimbs(me.sumLimbs, d) > 0 {
		lower = subLimbs(make(ordSum, 0, len(me.sumLimbs)), me.sumLimbs, d)
	}
	upper := addLimbs(make(ordSum, 0, len(me.sumLimbs)+1), me.sumLimbs, d)
	var results []Result
	node, _ := ix.seek(lower, 0)
	for ; node != nil; node = node.next[0] {
		if cmpLimbs(node.rec.sumLimbs, upper) > 0 {
			break
		}
		if node.rec == me {
			continue
		}
		results = append(results, node.rec.result())
	}
	return results, nil
}

// BucketSize reports how many users share the given key hash — the |V|
// in the paper's O(|V| log |V|) server cost.
func (s *Server) BucketSize(keyHash []byte) int {
	sh := &s.shards[s.shardIndex(keyHash)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if ix := sh.buckets[string(keyHash)]; ix != nil {
		return ix.length
	}
	return 0
}

// NumBuckets reports the number of distinct profile-key hashes stored.
func (s *Server) NumBuckets() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.RLock()
		n += len(s.shards[i].buckets)
		s.shards[i].mu.RUnlock()
	}
	return n
}

// BucketStats summarizes the bucket-size distribution (the |V| the
// per-query cost depends on); exported for the metrics endpoint.
type BucketStats struct {
	Buckets int     `json:"buckets"`
	Users   int     `json:"users"`
	Min     int     `json:"min"`
	Max     int     `json:"max"`
	Mean    float64 `json:"mean"`
	P50     int     `json:"p50"`
	P95     int     `json:"p95"`
}

// BucketStats computes the current bucket-size distribution. It locks one
// shard at a time, so the snapshot is per-shard consistent, not global —
// fine for observability.
func (s *Server) BucketStats() BucketStats {
	var sizes []int
	for i := range s.shards {
		s.shards[i].mu.RLock()
		for _, b := range s.shards[i].buckets {
			sizes = append(sizes, b.length)
		}
		s.shards[i].mu.RUnlock()
	}
	st := BucketStats{Buckets: len(sizes)}
	if len(sizes) == 0 {
		return st
	}
	sort.Ints(sizes)
	st.Min = sizes[0]
	st.Max = sizes[len(sizes)-1]
	for _, n := range sizes {
		st.Users += n
	}
	st.Mean = float64(st.Users) / float64(len(sizes))
	st.P50 = sizes[len(sizes)/2]
	st.P95 = sizes[(len(sizes)*95)/100]
	return st
}
