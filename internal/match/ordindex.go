// The per-bucket ordered ciphertext index. Each bucket keeps its records
// in a skiplist keyed on (order sum, user ID) — the OPE order-preserving
// property means ciphertext order IS match order, so the index can answer
// every matching flavor with a seek plus a walk instead of a scan:
//
//	Upload/Remove        O(log n) expected, no memmove
//	Match (kNN)          seek to the querier + bidirectional k-expansion
//	MatchMaxDistance     seek to sum-d, walk to sum+d
//	MatchProbe           per-bucket bounded kNN walks, k-way heap merge
//
// Level-0 nodes carry a backward link, so the bidirectional expansion the
// kNN paths need is a pointer chase in both directions. All access is
// guarded by the store's RWMutex: mutation only ever happens
// under the write lock, walks under at least the read lock, and no
// iterator outlives its lock — the skiplist itself needs no atomics.
package match

import (
	"sync/atomic"

	"smatch/internal/profile"
)

// ordMaxHeight bounds tower height; with p=1/4 per level, 20 levels cover
// ~4^20 ≈ 10^12 entries, far past any bucket this store will hold.
const ordMaxHeight = 20

// ordNode is one skiplist node. The head sentinel has rec == nil; walks
// use that to detect the left end.
type ordNode struct {
	rec  *stored
	prev *ordNode // level-0 backward link (head sentinel at the left end)
	next []*ordNode
}

// ordIndex is one bucket's ordered index. key is the bucket's map key,
// which every record filed here shares.
type ordIndex struct {
	key    string
	head   *ordNode
	height int // levels currently in use, >= 1
	length int
	rng    uint64 // xorshift state for tower heights; mutated under the store's write lock
}

// ordSeed derives distinct deterministic-ish rng seeds for successive
// indexes without pulling in a time or crypto dependency.
var ordSeed atomic.Uint64

func newOrdIndex() *ordIndex {
	// splitmix64 step over a global counter: distinct nonzero seeds per
	// index, no shared state after construction.
	z := ordSeed.Add(0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	head := &ordNode{next: make([]*ordNode, ordMaxHeight)}
	return &ordIndex{head: head, height: 1, rng: z}
}

// randHeight draws a tower height with P(h > l) = 4^-l.
func (ix *ordIndex) randHeight() int {
	x := ix.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	ix.rng = x
	h := 1
	for h < ordMaxHeight && x&3 == 3 {
		h++
		x >>= 2
	}
	return h
}

// keyLess orders records by (order sum, ID); IDs are unique per store, so
// the key is unique per bucket and the index is a strict total order.
func keyLess(a, b *stored) bool {
	if c := cmpLimbs(a.sumLimbs, b.sumLimbs); c != 0 {
		return c < 0
	}
	return a.ID < b.ID
}

// nodeBefore reports whether n's record sorts strictly before (sum, id).
func nodeBefore(n *ordNode, sum ordSum, id profile.ID) bool {
	if c := cmpLimbs(n.rec.sumLimbs, sum); c != 0 {
		return c < 0
	}
	return n.rec.ID < id
}

// insert files rec. Caller holds the store's write lock.
func (ix *ordIndex) insert(rec *stored) {
	var update [ordMaxHeight]*ordNode
	n := ix.head
	for lvl := ix.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && keyLess(n.next[lvl].rec, rec) {
			n = n.next[lvl]
		}
		update[lvl] = n
	}
	h := ix.randHeight()
	for lvl := ix.height; lvl < h; lvl++ {
		update[lvl] = ix.head
	}
	if h > ix.height {
		ix.height = h
	}
	nn := &ordNode{rec: rec, next: make([]*ordNode, h)}
	for lvl := 0; lvl < h; lvl++ {
		nn.next[lvl] = update[lvl].next[lvl]
		update[lvl].next[lvl] = nn
	}
	nn.prev = update[0]
	if nn.next[0] != nil {
		nn.next[0].prev = nn
	}
	ix.length++
}

// remove unfiles rec, reporting whether it was present (pointer identity,
// not just key equality). The unlinked node's references are nilled so a
// dead node reachable from a stale pointer cannot keep pinning the
// record. Caller holds the store's write lock.
func (ix *ordIndex) remove(rec *stored) bool {
	var update [ordMaxHeight]*ordNode
	n := ix.head
	for lvl := ix.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && keyLess(n.next[lvl].rec, rec) {
			n = n.next[lvl]
		}
		update[lvl] = n
	}
	target := update[0].next[0]
	if target == nil || target.rec != rec {
		return false
	}
	for lvl := 0; lvl < len(target.next); lvl++ {
		if update[lvl].next[lvl] == target {
			update[lvl].next[lvl] = target.next[lvl]
		}
	}
	if target.next[0] != nil {
		target.next[0].prev = target.prev
	}
	for lvl := range target.next {
		target.next[lvl] = nil
	}
	target.prev = nil
	target.rec = nil
	for ix.height > 1 && ix.head.next[ix.height-1] == nil {
		ix.height--
	}
	ix.length--
	return true
}

// seek returns the first node whose key is >= (sum, id) (nil when every
// key is smaller) plus its level-0 predecessor (the head sentinel when the
// sought key precedes everything). Caller holds at least the store's read
// lock; neither returned node may be used after the lock is released.
func (ix *ordIndex) seek(sum ordSum, id profile.ID) (ge, pred *ordNode) {
	n := ix.head
	for lvl := ix.height - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && nodeBefore(n.next[lvl], sum, id) {
			n = n.next[lvl]
		}
	}
	return n.next[0], n
}
