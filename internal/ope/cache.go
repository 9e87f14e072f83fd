// Memoization layer for the OPE scheme: a bounded recursion-tree cache plus
// a small plaintext→ciphertext LRU.
//
// The binary descent that encrypts a plaintext visits a path of nodes, each
// identified by its range interval [rlo, rlo+2^rbits). The node's expensive
// state — the hypergeometric split point and the PRF coin seed — depends
// only on the key and the node's position, never on the plaintext, so the
// top of the recursion tree is identical for every plaintext under the same
// key. The memo tree caches exactly that: each node stores its coin seed
// and (lazily) its split point, and descent follows child pointers instead
// of re-deriving SHA-256 child seeds and re-sampling splits. Shared prefixes
// are therefore computed once per key instead of once per plaintext, and a
// full hit costs a pointer chase plus a big.Int comparison per level.
//
// Caching node coins is security-neutral: the coins are a deterministic
// function of the key and the node (seed_child = SHA-256(seed_parent,
// branch)), so the cache holds nothing an adversary could not derive from
// the same key material, and ciphertexts are bit-for-bit identical with the
// cache on or off (enforced by the differential tests and fuzz target).
//
// The tree is bounded by a node budget; once exhausted, descents that fall
// off the cached prefix keep computing locally without growing the tree
// (counted as rejects), so memory stays bounded without eviction machinery
// — the hot shared prefix near the root is what was inserted first anyway.
// The LRU catches exact plaintext repeats (low-entropy social attributes
// revisit the same values constantly) and returns a defensive copy.
package ope

import (
	"container/list"
	"math/big"
	"sync"
	"sync/atomic"

	"smatch/internal/metrics"
)

// Default cache sizing.
const (
	// DefaultNodeBudget bounds the memo tree. A node is ~100 bytes, so the
	// default caps one scheme's tree at roughly 1.5 MiB.
	DefaultNodeBudget = 1 << 14
	// DefaultLRUSize bounds the plaintext→ciphertext LRU.
	DefaultLRUSize = 1024
)

// CacheConfig tunes the per-scheme memoization. The zero value selects the
// defaults (cache enabled).
type CacheConfig struct {
	// Disable turns all memoization off; the scheme then recomputes every
	// descent from scratch (the reference path the differential tests and
	// the fuzz target compare against).
	Disable bool
	// NodeBudget bounds the memo tree's node count; 0 selects
	// DefaultNodeBudget, negative disables the node cache only.
	NodeBudget int
	// LRUSize bounds the plaintext→ciphertext LRU; 0 selects
	// DefaultLRUSize, negative disables the LRU only.
	LRUSize int
}

// memoNode is one cached recursion-tree node. The seed is immutable; the
// split point is computed lazily on the first descent through the node
// (terminal nodes never need one); child pointers are CAS-published.
type memoNode struct {
	seed [32]byte
	x    atomic.Pointer[big.Int] // split point; nil until first computed
	kids [2]atomic.Pointer[memoNode]
}

// memoCache is the bounded recursion tree shared by all descents under one
// scheme. The count may overshoot the budget by a handful of nodes under
// concurrent insertion races; the bound is a memory cap, not an invariant
// the math depends on.
type memoCache struct {
	rootPtr atomic.Pointer[memoNode]
	count   atomic.Int64
	budget  int64
}

// root returns the cached root node, creating it on first use.
func (c *memoCache) root(seed [32]byte) *memoNode {
	if r := c.rootPtr.Load(); r != nil {
		return r
	}
	n := &memoNode{seed: seed}
	if c.rootPtr.CompareAndSwap(nil, n) {
		c.count.Add(1)
	}
	return c.rootPtr.Load()
}

// split returns the node's split point, computing and publishing it on
// first use. The returned big.Int is shared and must not be mutated.
func (n *memoNode) split(s *Scheme, fr *frame, dlo, d *big.Int, rbits uint) *big.Int {
	if x := n.x.Load(); x != nil {
		s.counters.NodeHits.Add(1)
		return x
	}
	s.counters.NodeMisses.Add(1)
	x := new(big.Int)
	computeSplit(x, fr, &n.seed, dlo, d, rbits)
	if !n.x.CompareAndSwap(nil, x) {
		// Lost a race; both computations are deterministic and equal, but
		// return the published one so every caller shares a single value.
		return n.x.Load()
	}
	return x
}

// addChild derives and publishes the branch child, or returns nil when the
// node budget is exhausted (the caller continues uncached).
func (s *Scheme) addChild(parent *memoNode, branch byte) *memoNode {
	c := s.memo
	if c.count.Load() >= c.budget {
		s.counters.NodeRejects.Add(1)
		return nil
	}
	n := &memoNode{seed: childSeed(parent.seed, branch)}
	if parent.kids[branch].CompareAndSwap(nil, n) {
		c.count.Add(1)
		s.counters.NodeInserts.Add(1)
		return n
	}
	return parent.kids[branch].Load()
}

// CachedNodes reports how many recursion-tree nodes the scheme has
// memoized (0 when the node cache is disabled).
func (s *Scheme) CachedNodes() int {
	if s.memo == nil {
		return 0
	}
	return int(s.memo.count.Load())
}

// CacheCounters exposes the scheme's private memoization counters (never
// nil).
func (s *Scheme) CacheCounters() *metrics.OPECacheCounters { return s.counters }

// ctLRU is a mutex-guarded LRU of exact plaintext→ciphertext repeats.
// Values are defensively copied in both directions so callers can mutate
// what they get back without corrupting the cache.
type ctLRU struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	ll  *list.List // front = most recently used
}

type lruEntry struct {
	k string
	v *big.Int
}

func newCtLRU(capacity int) *ctLRU {
	return &ctLRU{cap: capacity, m: make(map[string]*list.Element, capacity), ll: list.New()}
}

// get returns a copy of the cached ciphertext for m, if present.
func (l *ctLRU) get(m *big.Int) (*big.Int, bool) {
	key := string(m.Bytes())
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.m[key]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(e)
	return new(big.Int).Set(e.Value.(*lruEntry).v), true
}

// put records m→c, evicting the least recently used entry at capacity.
// It reports whether an eviction happened.
func (l *ctLRU) put(m, c *big.Int) bool {
	key := string(m.Bytes())
	l.mu.Lock()
	defer l.mu.Unlock()
	if e, ok := l.m[key]; ok {
		l.ll.MoveToFront(e)
		e.Value.(*lruEntry).v = new(big.Int).Set(c)
		return false
	}
	l.m[key] = l.ll.PushFront(&lruEntry{k: key, v: new(big.Int).Set(c)})
	if l.ll.Len() <= l.cap {
		return false
	}
	oldest := l.ll.Back()
	l.ll.Remove(oldest)
	delete(l.m, oldest.Value.(*lruEntry).k)
	return true
}
