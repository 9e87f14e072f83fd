package match

import (
	"errors"
	"math/rand"
	"testing"

	"smatch/internal/profile"
)

// rec builds a bare stored record for direct index tests.
func rec(id profile.ID, sum int64) *stored {
	r, err := entry(id, "bucket", sum).record()
	if err != nil {
		panic(err)
	}
	return r
}

// checkIndex walks the index at level 0 and verifies the structural
// invariants: strictly ascending (sum, ID) keys, consistent prev links,
// length, and that every upper-level link lands on a node reachable at
// level 0.
func checkIndex(t *testing.T, ix *ordIndex) []*stored {
	t.Helper()
	var out []*stored
	seen := map[*ordNode]bool{ix.head: true}
	prev := ix.head
	for n := ix.head.next[0]; n != nil; n = n.next[0] {
		if n.rec == nil {
			t.Fatalf("level-0 node %d has nil rec", len(out))
		}
		if n.prev != prev {
			t.Fatalf("node %d (id=%d): prev link broken", len(out), n.rec.ID)
		}
		if prev.rec != nil && !keyLess(prev.rec, n.rec) {
			t.Fatalf("order violated at node %d: (id=%d) not after (id=%d)", len(out), n.rec.ID, prev.rec.ID)
		}
		seen[n] = true
		out = append(out, n.rec)
		prev = n
	}
	if len(out) != ix.length {
		t.Fatalf("length = %d, level-0 walk found %d", ix.length, len(out))
	}
	for lvl := 1; lvl < ix.height; lvl++ {
		last := ix.head
		for n := ix.head.next[lvl]; n != nil; n = n.next[lvl] {
			if !seen[n] {
				t.Fatalf("level %d links to a node absent from level 0", lvl)
			}
			if last.rec != nil && !keyLess(last.rec, n.rec) {
				t.Fatalf("level %d order violated", lvl)
			}
			last = n
		}
	}
	for lvl := ix.height; lvl < ordMaxHeight; lvl++ {
		if ix.head.next[lvl] != nil {
			t.Fatalf("link above height at level %d", lvl)
		}
	}
	return out
}

func TestOrdIndexInsertOrder(t *testing.T) {
	ix := newOrdIndex()
	rng := rand.New(rand.NewSource(1))
	recs := make([]*stored, 200)
	for i := range recs {
		// Small sum range forces (sum, ID) tie-breaks.
		recs[i] = rec(profile.ID(i+1), int64(rng.Intn(40)))
	}
	for _, r := range rng.Perm(len(recs)) {
		ix.insert(recs[r])
	}
	got := checkIndex(t, ix)
	for i := 1; i < len(got); i++ {
		if !keyLess(got[i-1], got[i]) {
			t.Fatalf("walk not sorted at %d", i)
		}
	}
	if ix.length != len(recs) {
		t.Fatalf("length = %d, want %d", ix.length, len(recs))
	}
}

func TestOrdIndexSeek(t *testing.T) {
	ix := newOrdIndex()
	for _, sum := range []int64{10, 20, 20, 30} {
		// IDs 1..4; two records share sum 20.
		ix.insert(rec(profile.ID(ix.length+1), sum))
	}
	// Exact hit: (20, 2).
	ge, pred := ix.seek(rec(0, 20).sumLimbs, 2)
	if ge == nil || ge.rec.ID != 2 {
		t.Fatalf("seek(20,2).ge = %v, want id 2", ge)
	}
	if pred.rec == nil || pred.rec.ID != 1 {
		t.Fatalf("seek(20,2).pred wrong")
	}
	// Between keys: (20, 99) lands on (30, 4).
	ge, pred = ix.seek(rec(0, 20).sumLimbs, 99)
	if ge == nil || ge.rec.ID != 4 || pred.rec.ID != 3 {
		t.Fatalf("seek(20,99) = ge %v pred %v, want ge id 4, pred id 3", ge, pred)
	}
	// Before everything: pred is the head sentinel.
	ge, pred = ix.seek(rec(0, 5).sumLimbs, 0)
	if ge == nil || ge.rec.ID != 1 || pred.rec != nil {
		t.Fatal("seek before first entry wrong")
	}
	// Past everything: ge nil, pred last.
	ge, pred = ix.seek(rec(0, 99).sumLimbs, 0)
	if ge != nil || pred.rec == nil || pred.rec.ID != 4 {
		t.Fatal("seek past last entry wrong")
	}
}

func TestOrdIndexRemove(t *testing.T) {
	ix := newOrdIndex()
	rng := rand.New(rand.NewSource(2))
	recs := make([]*stored, 300)
	for i := range recs {
		recs[i] = rec(profile.ID(i+1), int64(rng.Intn(50)))
		ix.insert(recs[i])
	}
	// Pointer identity: a distinct record with an identical key is NOT a
	// member and must not knock out the real one.
	impostor := rec(recs[7].ID, 0)
	impostor.sumLimbs = recs[7].sumLimbs
	if ix.remove(impostor) {
		t.Fatal("remove accepted an impostor with an equal key")
	}
	if !ix.remove(recs[7]) {
		t.Fatal("remove rejected a member")
	}
	if ix.remove(recs[7]) {
		t.Fatal("second remove of the same record succeeded")
	}
	checkIndex(t, ix)
	// Remove in random order, checking invariants as we go.
	order := rng.Perm(len(recs))
	removed := map[int]bool{7: true}
	for step, i := range order {
		if removed[i] {
			continue
		}
		if !ix.remove(recs[i]) {
			t.Fatalf("step %d: remove(id=%d) failed", step, recs[i].ID)
		}
		removed[i] = true
		if step%37 == 0 {
			checkIndex(t, ix)
		}
	}
	if ix.length != 0 {
		t.Fatalf("length = %d after removing everything", ix.length)
	}
	if ix.height != 1 {
		t.Fatalf("height = %d after emptying, want 1 (tall levels not shrunk)", ix.height)
	}
	checkIndex(t, ix)
}

// TestOrdIndexRemoveNilsNode pins the node-compaction hygiene: an unlinked
// node must not keep pointers into the list (or its record) alive — the
// skiplist analogue of removeSorted nilling the vacated tail slot.
func TestOrdIndexRemoveNilsNode(t *testing.T) {
	ix := newOrdIndex()
	a, b, c := rec(1, 10), rec(2, 20), rec(3, 30)
	ix.insert(a)
	ix.insert(b)
	ix.insert(c)
	target := ix.head.next[0].next[0] // b's node
	if target.rec != b {
		t.Fatal("setup: wrong node")
	}
	if !ix.remove(b) {
		t.Fatal("remove failed")
	}
	if target.rec != nil || target.prev != nil {
		t.Error("removed node still references its record or predecessor")
	}
	for lvl, n := range target.next {
		if n != nil {
			t.Errorf("removed node still links forward at level %d", lvl)
		}
	}
	got := checkIndex(t, ix)
	if len(got) != 2 || got[0] != a || got[1] != c {
		t.Fatalf("remaining walk wrong: %v", got)
	}
}

// TestIndexNearestInconsistency pins the corruption-surfacing contract: a
// querier missing from its bucket index is an ErrInconsistent plus a
// counter bump, never a silent exclusion of whoever sits at its slot.
func TestIndexNearestInconsistency(t *testing.T) {
	ix := newOrdIndex()
	for i := 1; i <= 5; i++ {
		ix.insert(rec(profile.ID(i), int64(10*i)))
	}
	before := IndexInconsistencies()

	// A record with the same key as a member but a different pointer: the
	// seek lands on the member, the pointer check must reject it.
	ghost := rec(3, 30)
	if _, err := indexNearest(ix, ghost, 2); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("ghost querier: err = %v, want ErrInconsistent", err)
	}
	// Nil index (bucket vanished while the directory still points at it).
	if _, err := indexNearest(nil, ghost, 2); !errors.Is(err, ErrInconsistent) {
		t.Fatalf("nil index: err = %v, want ErrInconsistent", err)
	}

	if got := IndexInconsistencies() - before; got != 2 {
		t.Errorf("inconsistency counter advanced by %d, want 2", got)
	}
}
