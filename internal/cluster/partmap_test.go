package cluster

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"smatch/internal/match"
)

func testNodes(n int) []Node {
	out := make([]Node, n)
	for i := range out {
		out[i] = Node{ID: fmt.Sprintf("node-%02d", i), Addr: fmt.Sprintf("127.0.0.1:%d", 9000+i)}
	}
	return out
}

func TestValidateRejects(t *testing.T) {
	cases := map[string]PartitionMap{
		"zero partitions":   {NumPartitions: 0, Nodes: testNodes(1)},
		"non-power-of-two":  {NumPartitions: 3, Nodes: testNodes(1)},
		"no nodes":          {NumPartitions: 4},
		"missing address":   {NumPartitions: 4, Nodes: []Node{{ID: "a"}}},
		"missing ID":        {NumPartitions: 4, Nodes: []Node{{Addr: "x:1"}}},
		"duplicate IDs":     {NumPartitions: 4, Nodes: []Node{{ID: "a", Addr: "x:1"}, {ID: "a", Addr: "x:2"}}},
		"unsorted node IDs": {NumPartitions: 4, Nodes: []Node{{ID: "b", Addr: "x:1"}, {ID: "a", Addr: "x:2"}}},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Errorf("%s: validated without error", name)
		}
	}
	good := PartitionMap{NumPartitions: 4, Nodes: testNodes(3)}
	if err := good.Validate(); err != nil {
		t.Errorf("valid map rejected: %v", err)
	}
}

func TestNewMapSortsNodes(t *testing.T) {
	m, err := NewMap(8, []Node{{ID: "c", Addr: "x:3"}, {ID: "a", Addr: "x:1"}, {ID: "b", Addr: "x:2"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"a", "b", "c"} {
		if m.Nodes[i].ID != want {
			t.Fatalf("nodes not sorted: %+v", m.Nodes)
		}
	}
}

func TestPartitionOfMatchesStableHash(t *testing.T) {
	m, _ := NewMap(8, testNodes(3))
	for _, key := range [][]byte{[]byte("bucket-a"), []byte("bucket-b"), {0, 1, 2, 3}} {
		want := uint32(match.PartitionHash(key) & 7)
		if got := m.PartitionOf(key); got != want {
			t.Errorf("PartitionOf(%q) = %d, want %d", key, got, want)
		}
	}
}

func TestReplicasIsStablePermutation(t *testing.T) {
	m, _ := NewMap(16, testNodes(5))
	for p := uint32(0); p < m.NumPartitions; p++ {
		reps := m.Replicas(p)
		if len(reps) != len(m.Nodes) {
			t.Fatalf("partition %d: %d replicas, want %d", p, len(reps), len(m.Nodes))
		}
		seen := make(map[string]bool)
		for _, n := range reps {
			if seen[n.ID] {
				t.Fatalf("partition %d: node %s listed twice", p, n.ID)
			}
			seen[n.ID] = true
		}
		if !reflect.DeepEqual(reps, m.Replicas(p)) {
			t.Fatalf("partition %d: Replicas not deterministic", p)
		}
		if m.Owner(p) != reps[0] {
			t.Fatalf("partition %d: Owner != Replicas[0]", p)
		}
	}
}

// TestOwnerIsFirstReplica: the one-pass Owner picks the node Replicas
// ranks first, under seeded random node IDs, for 1–5 nodes and 1–64
// partitions, and allocates nothing.
func TestOwnerIsFirstReplica(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		for n := 1; n <= 5; n++ {
			nodes := make([]Node, n)
			for i := range nodes {
				nodes[i] = Node{ID: fmt.Sprintf("n%d-%x", i, rng.Uint64()), Addr: "127.0.0.1:1"}
			}
			for parts := uint32(1); parts <= 64; parts *= 2 {
				m, err := NewMap(parts, nodes)
				if err != nil {
					t.Fatal(err)
				}
				for p := uint32(0); p < parts; p++ {
					if got, want := m.Owner(p), m.Replicas(p)[0]; got != want {
						t.Fatalf("%d nodes, partition %d/%d: Owner %s, Replicas[0] %s", n, p, parts, got.ID, want.ID)
					}
				}
			}
		}
	}
	m, _ := NewMap(16, testNodes(5))
	if allocs := testing.AllocsPerRun(100, func() { m.Owner(7) }); allocs != 0 {
		t.Errorf("Owner allocates %.0f times, want 0", allocs)
	}
}

// TestRendezvousMinimalMovement pins rendezvous placement's stability:
// between maps over node sets that differ by one node, only partitions
// touching that node change owner — everything else keeps its owner.
func TestRendezvousMinimalMovement(t *testing.T) {
	nodes := testNodes(8)
	m, err := NewMap(256, nodes)
	if err != nil {
		t.Fatal(err)
	}

	// Remove one node: partitions it did not own must keep their owner.
	removed := nodes[3].ID
	smaller, err := NewMap(m.NumPartitions, append(append([]Node(nil), nodes[:3]...), nodes[4:]...))
	if err != nil {
		t.Fatal(err)
	}
	moved := 0
	for p := uint32(0); p < m.NumPartitions; p++ {
		before, after := m.Owner(p), smaller.Owner(p)
		if before.ID == removed {
			moved++
			continue
		}
		if before.ID != after.ID {
			t.Fatalf("partition %d moved %s -> %s though %s was the node removed", p, before.ID, after.ID, removed)
		}
	}
	if moved == 0 {
		t.Fatal("removed node owned nothing; pick different IDs")
	}

	// Add a node: a partition either keeps its owner or moves to the
	// newcomer — never between two old nodes.
	grown, err := NewMap(m.NumPartitions, append(append([]Node(nil), nodes...), Node{ID: "node-zz", Addr: "127.0.0.1:9999"}))
	if err != nil {
		t.Fatal(err)
	}
	gained := 0
	for p := uint32(0); p < m.NumPartitions; p++ {
		before, after := m.Owner(p), grown.Owner(p)
		if after.ID == "node-zz" {
			gained++
			continue
		}
		if before.ID != after.ID {
			t.Fatalf("partition %d moved %s -> %s though only node-zz was added", p, before.ID, after.ID)
		}
	}
	if gained == 0 {
		t.Fatal("added node gained nothing across 256 partitions")
	}
}
