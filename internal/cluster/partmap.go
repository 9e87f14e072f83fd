// Package cluster distributes the S-MATCH store across processes: a
// partition map, fixed for the life of the cluster, assigns the bucket
// key space to nodes, WAL log shipping replicates each partition leader
// onto followers, and a router terminates client connections, fanning
// operations out to partition owners and merging the results.
//
// The unit of placement is the bucket: every profile in a bucket (same
// h(Kup)) lives on the same partition, because matching is a
// within-bucket computation — a query scatter therefore needs exactly
// one partition to succeed, and its results are byte-identical to a
// single-node store holding the same entries.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"smatch/internal/match"
)

// Node is one cluster member: a stable identity and the address its
// v2-speaking server listens on.
type Node struct {
	ID   string
	Addr string
}

// PartitionMap is the cluster's ownership contract: a fixed power-of-two
// number of partitions over the stable bucket hash, and the node set
// partitions are placed on with rendezvous hashing. Everything placement
// touches is derived from stable hashes of the map's contents, so every
// process built from the same node list computes identical owners. A
// cluster keeps one map for its whole life: nothing moves a bucket
// between nodes once it is placed.
type PartitionMap struct {
	NumPartitions uint32 // power of two
	Nodes         []Node // sorted by ID; no duplicates
}

// Validate checks the structural invariants.
func (m *PartitionMap) Validate() error {
	if m.NumPartitions == 0 || m.NumPartitions&(m.NumPartitions-1) != 0 {
		return fmt.Errorf("cluster: partition count %d is not a power of two", m.NumPartitions)
	}
	if len(m.Nodes) == 0 {
		return errors.New("cluster: partition map with no nodes")
	}
	seen := make(map[string]bool, len(m.Nodes))
	for i, n := range m.Nodes {
		if n.ID == "" || n.Addr == "" {
			return fmt.Errorf("cluster: node %d missing ID or address", i)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node ID %q", n.ID)
		}
		seen[n.ID] = true
		if i > 0 && m.Nodes[i-1].ID >= n.ID {
			return errors.New("cluster: nodes not sorted by ID")
		}
	}
	return nil
}

// PartitionOf maps a bucket key (h(Kup) bytes) to its partition: the
// stable hash masked down to the partition count.
func (m *PartitionMap) PartitionOf(keyHash []byte) uint32 {
	return uint32(match.PartitionHash(keyHash) & uint64(m.NumPartitions-1))
}

// Replicas returns the map's nodes in preference order for a partition —
// rendezvous (highest-random-weight) hashing: each node's weight is the
// stable hash of its ID mixed with the partition number, and nodes sort
// by descending weight. The first node is the partition's leader, the
// next ReplicationFactor-1 its followers, so a leader's failover target
// is the same on every router.
func (m *PartitionMap) Replicas(partition uint32) []Node {
	type scored struct {
		n Node
		w uint64
	}
	nodes := make([]scored, len(m.Nodes))
	for i, n := range m.Nodes {
		nodes[i] = scored{n, weight(n.ID, partition)}
	}
	sort.Slice(nodes, func(i, j int) bool {
		return outranks(nodes[i].w, nodes[i].n.ID, nodes[j].w, nodes[j].n.ID)
	})
	out := make([]Node, len(nodes))
	for i, s := range nodes {
		out[i] = s.n
	}
	return out
}

// weight is a node's rendezvous weight for a partition: the stable hash
// of its ID, a separator and the partition number, finalized.
func weight(id string, partition uint32) uint64 {
	var stack [64]byte
	key := append(stack[:0], id...)
	key = append(key, 0xff) // unambiguous separator: node IDs are ID strings, 0xff never ends one ambiguously with the counter
	key = binary.BigEndian.AppendUint64(key, uint64(partition))
	// FNV-1a avalanches poorly in its final bytes — the partition
	// counter at the key's tail would barely move the weight, and one
	// node would win every partition. The finalizer (murmur3's
	// fmix64) spreads the counter across all 64 bits; it is fixed
	// forever for the same reason PartitionHash is.
	return mix64(match.PartitionHash(key))
}

// outranks orders replicas: descending weight, then ascending ID, a total
// order even on hash ties.
func outranks(w1 uint64, id1 string, w2 uint64, id2 string) bool {
	if w1 != w2 {
		return w1 > w2
	}
	return id1 < id2
}

// mix64 is murmur3's 64-bit finalizer: a bijective full-avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Owner returns the partition's leader, the first replica, in one pass
// over the nodes.
func (m *PartitionMap) Owner(partition uint32) Node {
	best, bestW := m.Nodes[0], weight(m.Nodes[0].ID, partition)
	for _, n := range m.Nodes[1:] {
		if w := weight(n.ID, partition); outranks(w, n.ID, bestW, best.ID) {
			best, bestW = n, w
		}
	}
	return best
}

// OwnerOf returns the leader owning a bucket key.
func (m *PartitionMap) OwnerOf(keyHash []byte) Node {
	return m.Owner(m.PartitionOf(keyHash))
}

// NewMap builds a validated map over the given nodes, sorting them by ID.
func NewMap(numPartitions uint32, nodes []Node) (*PartitionMap, error) {
	sorted := append([]Node(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	m := &PartitionMap{NumPartitions: numPartitions, Nodes: sorted}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}
