// Weighted equivalence across deployment shapes: the ISSUE acceptance
// scenario. A 3-attribute weighted workload must rank identically whether
// it is answered by a single node's store directly, by that node over
// the wire, or by a 3-node partitioned cluster behind the router — and
// the push path must report the same matches.
package cluster

import (
	"fmt"
	"math/big"
	"reflect"
	"sync"
	"testing"
	"time"

	"smatch/internal/client"
	"smatch/internal/core"
	"smatch/internal/group"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
	"smatch/internal/scoring"
)

var (
	grpOnceW sync.Once
	grpValW  *group.Group
)

func testGroupW(t testing.TB) *group.Group {
	t.Helper()
	grpOnceW.Do(func() {
		g, err := group.Generate(256, nil)
		if err != nil {
			panic(err)
		}
		grpValW = g
	})
	return grpValW
}

// weightedEntriesFor runs the real weighted client pipeline over a
// 3-attribute uniform schema and returns one entry per profile. Each entry
// is built once and uploaded to every deployment shape, so the stores hold
// the exact same bytes.
func weightedEntriesFor(t *testing.T, w scoring.Weights, profiles []profile.Profile) []match.Entry {
	t.Helper()
	schema := profile.Schema{Attrs: []profile.AttributeSpec{
		{Name: "a0", NumValues: 64}, {Name: "a1", NumValues: 64}, {Name: "a2", NumValues: 64},
	}}
	probs := make([]float64, 64)
	for i := range probs {
		probs[i] = 1.0 / 64
	}
	dist := [][]float64{probs, probs, probs}
	sys, err := core.NewSystem(schema, dist,
		core.Params{PlaintextBits: 64, Theta: 4, Weights: w}, testOPRF(t).PublicKey(), testGroupW(t))
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]match.Entry, len(profiles))
	for i, p := range profiles {
		dev, err := sys.NewClient(testOPRF(t), []byte(fmt.Sprintf("wcluster-dev-%d", p.ID)))
		if err != nil {
			t.Fatal(err)
		}
		entry, _, err := dev.PrepareUpload(p)
		if err != nil {
			t.Fatal(err)
		}
		entries[i] = entry
	}
	return entries
}

// TestWeightedClusterEquivalence: weighted kNN and max-distance queries
// agree across a single node's store asked directly, the same node over
// the wire and a 3-node cluster; push agrees across the two wire shapes.
func TestWeightedClusterEquivalence(t *testing.T) {
	n1 := startNode(t, "node-a", nodeOpts{})
	n2 := startNode(t, "node-b", nodeOpts{})
	n3 := startNode(t, "node-c", nodeOpts{})
	pm := mapOver(t, 4, n1, n2, n3)
	_, routerAddr := startRouter(t, pm, client.Options{}, metrics.New())
	single := startNode(t, "single", nodeOpts{})

	viaRouter := dialT(t, routerAddr)
	viaSingle := dialT(t, single.addr)

	// Weight 64 on a0. Users 2..4 differ from user 1 only on a0, by 1, 4
	// and 7: their weighted distance bands (64(d-1)-9, 64(d+1)+9)·2^58 are
	// pairwise disjoint, so the kNN order 2,3,4 is deterministic despite
	// entropy-mapping noise. User 5 lives in another key cell and must
	// never surface.
	w := scoring.Weights{64, 1, 8}
	profiles := []profile.Profile{
		{ID: 1, Attrs: []int{9, 9, 9}},
		{ID: 2, Attrs: []int{10, 9, 9}},
		{ID: 3, Attrs: []int{13, 9, 9}},
		{ID: 4, Attrs: []int{16, 9, 9}},
		{ID: 5, Attrs: []int{40, 40, 40}},
	}
	entries := weightedEntriesFor(t, w, profiles)
	for _, e := range entries {
		if err := viaRouter.Upload(e); err != nil {
			t.Fatalf("router upload %d: %v", e.ID, err)
		}
		if err := viaSingle.Upload(e); err != nil {
			t.Fatalf("single upload %d: %v", e.ID, err)
		}
	}

	// kNN: all three shapes return the same ranking, and it is the
	// analytically forced one.
	type shape struct {
		label   string
		kNN     func(profile.ID, int) ([]match.Result, error)
		maxDist func(profile.ID, *big.Int) ([]match.Result, error)
	}
	shapes := []shape{
		{"store", single.store.Match, single.store.MatchMaxDistance},
		{"single-node", viaSingle.Query, viaSingle.QueryMaxDistance},
		{"cluster", viaRouter.Query, viaRouter.QueryMaxDistance},
	}
	want := []profile.ID{2, 3, 4}
	for _, sh := range shapes {
		res, err := sh.kNN(1, 5)
		if err != nil {
			t.Fatalf("%s kNN: %v", sh.label, err)
		}
		got := make([]profile.ID, len(res))
		for i, r := range res {
			got[i] = r.ID
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s weighted kNN = %v, want %v", sh.label, got, want)
		}
	}

	// Max-distance at 350·2^58: inside the d=1 and d=4 bands (max 137, 329)
	// and below the d=7 band (min 375), so exactly users 2 and 3 qualify.
	maxDist := new(big.Int).Lsh(big.NewInt(350), 58)
	for _, c := range shapes {
		res, err := c.maxDist(1, maxDist)
		if err != nil {
			t.Fatalf("%s max-dist: %v", c.label, err)
		}
		got := map[profile.ID]bool{}
		for _, r := range res {
			got[r.ID] = true
		}
		if !reflect.DeepEqual(got, map[profile.ID]bool{2: true, 3: true}) {
			t.Fatalf("%s weighted max-dist = %v, want users 2 and 3", c.label, res)
		}
	}

	// Push: standing probes registered against the single node and through
	// the router relay report the same weighted match for a new upload.
	// User 6 differs by 2 on a0 — band (55, 201)·2^58, inside the
	// threshold.
	subSingle, err := viaSingle.Subscribe(entries[0], maxDist, 64)
	if err != nil {
		t.Fatal(err)
	}
	subCluster, err := viaRouter.Subscribe(entries[0], maxDist, 64)
	if err != nil {
		t.Fatal(err)
	}
	newcomer := weightedEntriesFor(t, w, []profile.Profile{{ID: 6, Attrs: []int{11, 9, 9}}})[0]
	if err := viaSingle.Upload(newcomer); err != nil {
		t.Fatal(err)
	}
	if err := viaRouter.Upload(newcomer); err != nil {
		t.Fatal(err)
	}
	expectNotify := func(sub *client.Subscription, label string, event uint8) {
		t.Helper()
		select {
		case n, ok := <-sub.C:
			if !ok {
				t.Fatalf("%s subscription closed", label)
			}
			if n.Event != event || n.ID != 6 {
				t.Fatalf("%s notification = event %v user %d, want event %v user 6", label, n.Event, n.ID, event)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no push notification for the weighted upload", label)
		}
	}
	expectNotify(subSingle, "single-node push", client.NotifyMatch)
	expectNotify(subCluster, "cluster push", client.NotifyMatch)

	// And the symmetric gone event when the newcomer leaves.
	if err := viaSingle.Remove(6); err != nil {
		t.Fatal(err)
	}
	if err := viaRouter.Remove(6); err != nil {
		t.Fatal(err)
	}
	expectNotify(subSingle, "single-node gone", client.NotifyGone)
	expectNotify(subCluster, "cluster gone", client.NotifyGone)

	if err := subSingle.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := subCluster.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
}
