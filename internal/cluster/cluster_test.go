// Integration tests for cluster mode: real TLS servers per partition, a
// real router in front, and a single-node reference server fed the same
// workload — the acceptance bar is byte-equality between the two views.
package cluster

import (
	"bytes"
	"context"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"math/big"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"smatch/internal/chain"
	"smatch/internal/client"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/netfault"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

var (
	oprfOnce sync.Once
	oprfSrv  *oprf.Server
)

func testOPRF(t testing.TB) *oprf.Server {
	t.Helper()
	oprfOnce.Do(func() {
		key, err := rsa.GenerateKey(rand.Reader, 1024)
		if err != nil {
			panic(err)
		}
		oprfSrv, _ = oprf.NewServerFromKey(key)
	})
	return oprfSrv
}

// entryFor builds a minimal stored record with a chosen order sum, the
// same shape the server integration suite uses.
func entryFor(id uint32, bucket string, sum int64) match.Entry {
	return match.Entry{
		ID:      profile.ID(id),
		KeyHash: []byte(bucket),
		Chain:   &chain.Chain{Cts: []*big.Int{big.NewInt(sum)}, CtBits: 48},
		Auth:    []byte(fmt.Sprintf("auth-%d", id)),
	}
}

// node is one running partition server with its journal and store.
type node struct {
	id      string
	addr    string
	store   *match.Server
	journal *server.Journal
	acks    *AckTracker
	srv     *server.Server
	kill    func() // stops Serve; safe to call once (Cleanup tolerates it)
}

type nodeOpts struct {
	syncRepl    bool  // wrap the journal in semi-sync replication
	segmentSize int64 // WAL segment rotation threshold (0 = default)
}

func startNode(t *testing.T, id string, o nodeOpts) *node {
	t.Helper()
	j, store, _, err := server.OpenJournal(wal.Options{Dir: t.TempDir(), SegmentSize: o.segmentSize})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	acks := NewAckTracker()
	cfg := server.Config{
		OPRF:        testOPRF(t),
		Store:       store,
		Journal:     j,
		ReadTimeout: 5 * time.Second,
	}
	if o.syncRepl {
		cfg.ServiceJournal = &SyncJournal{J: j, Acks: acks, Timeout: 10 * time.Second}
	}
	srv, err := server.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ldr := &Leader{Journal: j, Acks: acks, Metrics: srv.Metrics(), MaxWait: 2 * time.Second}
	ldr.Register(srv.Service())
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx) }()
	kill := func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("node did not shut down")
		}
	}
	t.Cleanup(kill)
	return &node{id: id, addr: a.String(), store: store, journal: j, acks: acks, srv: srv, kill: kill}
}

// startRouter runs a router plus the server fronting it and returns both
// with the router server's address.
func startRouter(t *testing.T, pm *PartitionMap, opts client.Options, m *metrics.Registry) (*Router, string) {
	t.Helper()
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	rt, err := NewRouter(RouterConfig{Map: pm, ClientOptions: opts, Metrics: m, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	srv, err := server.New(server.Config{
		OPRF:             testOPRF(t),
		ReadTimeout:      5 * time.Second,
		Metrics:          m,
		RemoteSubscriber: rt.Subscribe,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Register(srv)
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx) }()
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("router server did not shut down")
		}
	})
	return rt, a.String()
}

func dialT(t *testing.T, addr string) *client.Conn {
	t.Helper()
	c, err := client.Dial(addr, client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// mapOver builds a map over running nodes.
func mapOver(t *testing.T, partitions uint32, nodes ...*node) *PartitionMap {
	t.Helper()
	members := make([]Node, len(nodes))
	for i, n := range nodes {
		members[i] = Node{ID: n.id, Addr: n.addr}
	}
	pm, err := NewMap(partitions, members)
	if err != nil {
		t.Fatal(err)
	}
	return pm
}

// clusterWorkload uploads the same entries through both conns: singles,
// one batch, and a couple of removes. Returns the surviving entries.
func clusterWorkload(t *testing.T, viaRouter, viaSingle *client.Conn) []match.Entry {
	t.Helper()
	var entries []match.Entry
	id := uint32(1)
	for b := 0; b < 6; b++ {
		bucket := fmt.Sprintf("bucket-%d", b)
		for u := 0; u < 4; u++ {
			entries = append(entries, entryFor(id, bucket, int64(100*b+7*u)))
			id++
		}
	}
	// Singles through both paths.
	for _, e := range entries[:12] {
		if err := viaRouter.Upload(e); err != nil {
			t.Fatalf("router upload %d: %v", e.ID, err)
		}
		if err := viaSingle.Upload(e); err != nil {
			t.Fatalf("single upload %d: %v", e.ID, err)
		}
	}
	// The rest as one batch (exercises the router's split/merge).
	status, err := viaRouter.UploadBatch(entries[12:])
	if err != nil {
		t.Fatalf("router batch: %v", err)
	}
	for i, s := range status {
		if s != "" {
			t.Fatalf("router batch entry %d: %s", i, s)
		}
	}
	if _, err := viaSingle.UploadBatch(entries[12:]); err != nil {
		t.Fatalf("single batch: %v", err)
	}
	// Remove two users through both paths.
	for _, rid := range []profile.ID{3, 15} {
		if err := viaRouter.Remove(rid); err != nil {
			t.Fatalf("router remove %d: %v", rid, err)
		}
		if err := viaSingle.Remove(rid); err != nil {
			t.Fatalf("single remove %d: %v", rid, err)
		}
	}
	out := entries[:0]
	for _, e := range entries {
		if e.ID != 3 && e.ID != 15 {
			out = append(out, e)
		}
	}
	return out
}

// TestClusterEquivalence is the acceptance test: a 3-node, 4-partition
// cluster behind a router answers every query byte-identically to a
// single-node store fed the same workload, and the union of the
// partition stores is exactly the single store's contents.
func TestClusterEquivalence(t *testing.T) {
	n1 := startNode(t, "node-a", nodeOpts{})
	n2 := startNode(t, "node-b", nodeOpts{})
	n3 := startNode(t, "node-c", nodeOpts{})
	pm := mapOver(t, 4, n1, n2, n3)
	_, routerAddr := startRouter(t, pm, client.Options{}, metrics.New())

	single := startNode(t, "single", nodeOpts{})
	viaRouter := dialT(t, routerAddr)
	viaSingle := dialT(t, single.addr)
	entries := clusterWorkload(t, viaRouter, viaSingle)

	// Per-user queries agree byte for byte (hint path: this router saw
	// every upload).
	for _, e := range entries {
		want, err := viaSingle.Query(e.ID, 5)
		if err != nil {
			t.Fatalf("single query %d: %v", e.ID, err)
		}
		got, err := viaRouter.Query(e.ID, 5)
		if err != nil {
			t.Fatalf("router query %d: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d: router %+v != single %+v", e.ID, got, want)
		}
		gotMax, err := viaRouter.QueryMaxDistance(e.ID, big.NewInt(25))
		if err != nil {
			t.Fatalf("router max-dist query %d: %v", e.ID, err)
		}
		wantMax, err := viaSingle.QueryMaxDistance(e.ID, big.NewInt(25))
		if err != nil {
			t.Fatalf("single max-dist query %d: %v", e.ID, err)
		}
		if !reflect.DeepEqual(gotMax, wantMax) {
			t.Fatalf("max-dist query %d: router %+v != single %+v", e.ID, gotMax, wantMax)
		}
	}

	// A fresh router has no owner hints: every query takes the scatter
	// path and must still agree.
	_, freshAddr := startRouter(t, pm, client.Options{}, metrics.New())
	viaFresh := dialT(t, freshAddr)
	for _, e := range entries {
		want, _ := viaSingle.Query(e.ID, 5)
		got, err := viaFresh.Query(e.ID, 5)
		if err != nil {
			t.Fatalf("fresh-router query %d: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("fresh-router query %d: %+v != %+v", e.ID, got, want)
		}
	}
	// Scatter remove (no hint) removes through the fresh router too.
	if err := viaFresh.Remove(entries[0].ID); err != nil {
		t.Fatalf("fresh-router remove: %v", err)
	}
	if err := viaSingle.Remove(entries[0].ID); err != nil {
		t.Fatal(err)
	}

	// The union of the partition stores equals the single store.
	if err := assertUnionEquals(single.store, n1, n2, n3); err != nil {
		t.Fatal(err)
	}
}

// assertUnionEquals checks the union of the nodes' entries is exactly the
// reference store's contents (same IDs, same bytes, no duplicates).
func assertUnionEquals(ref *match.Server, nodes ...*node) error {
	type flat struct {
		bucket, auth string
		chain        string
	}
	flatten := func(e match.Entry) flat {
		return flat{bucket: string(e.KeyHash), auth: string(e.Auth), chain: string(e.Chain.Bytes())}
	}
	union := make(map[profile.ID]flat)
	for _, n := range nodes {
		err := n.store.ForEachEntry(func(e match.Entry) error {
			if _, dup := union[e.ID]; dup {
				return fmt.Errorf("user %d stored on two partitions", e.ID)
			}
			union[e.ID] = flatten(e)
			return nil
		})
		if err != nil {
			return err
		}
	}
	want := make(map[profile.ID]flat)
	if err := ref.ForEachEntry(func(e match.Entry) error {
		want[e.ID] = flatten(e)
		return nil
	}); err != nil {
		return err
	}
	if !reflect.DeepEqual(union, want) {
		return fmt.Errorf("cluster union (%d entries) differs from single store (%d entries)", len(union), len(want))
	}
	return nil
}

// TestClusterSubscribeRelay: a standing probe registered through the
// router lands on the owning partition, and its notifications flow back
// through the router's push relay.
func TestClusterSubscribeRelay(t *testing.T) {
	n1 := startNode(t, "node-a", nodeOpts{})
	n2 := startNode(t, "node-b", nodeOpts{})
	pm := mapOver(t, 2, n1, n2)
	_, routerAddr := startRouter(t, pm, client.Options{}, metrics.New())

	subscriber := dialT(t, routerAddr)
	uploader := dialT(t, routerAddr)

	sub, err := subscriber.Subscribe(entryFor(0, "sub-bucket", 100), big.NewInt(10), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := uploader.Upload(entryFor(42, "sub-bucket", 105)); err != nil {
		t.Fatal(err)
	}
	if err := uploader.Upload(entryFor(43, "sub-bucket", 500)); err != nil {
		t.Fatal(err) // out of range: must NOT notify
	}
	select {
	case n, ok := <-sub.C:
		if !ok {
			t.Fatal("subscription closed before first notification")
		}
		if n.ID != 42 {
			t.Fatalf("notified about user %d, want 42", n.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no notification through the router relay")
	}
	select {
	case n, ok := <-sub.C:
		if ok {
			t.Fatalf("unexpected second notification: %+v", n)
		}
	case <-time.After(200 * time.Millisecond):
	}
	sub.Unsubscribe()
}

// faultyDialer wraps every dialed conn in netfault chunking/latency —
// stream-legal chaos under TLS that exercises framing without severing
// connections.
func faultyDialer(f netfault.Faults) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		raw, err := net.DialTimeout(network, addr, 5*time.Second)
		if err != nil {
			return nil, err
		}
		return netfault.New(raw, f), nil
	}
}

// TestSemiSyncPromotionChaos is the durability acceptance test: with
// semi-synchronous replication, every write the router acknowledged
// survives losing the leader — the router fails over to the caught-up
// follower and serves identical results. The router's upstream links run
// under netfault chunking + propagation delay throughout.
func TestSemiSyncPromotionChaos(t *testing.T) {
	// Roles are decided by rendezvous placement over node IDs, which is
	// deterministic — compute who leads partition 0 before starting.
	probe, err := NewMap(1, []Node{{ID: "alpha", Addr: "x"}, {ID: "beta", Addr: "x2"}})
	if err != nil {
		t.Fatal(err)
	}
	leaderID := probe.Owner(0).ID
	followerID := "beta"
	if leaderID == "beta" {
		followerID = "alpha"
	}

	leader := startNode(t, leaderID, nodeOpts{syncRepl: true})
	follower := startNode(t, followerID, nodeOpts{})
	rep, err := StartReplicator(ReplicatorConfig{
		NodeID:     followerID,
		LeaderAddr: leader.addr,
		Journal:    follower.journal,
		Store:      follower.store,
		ClientOptions: client.Options{
			Timeout: 5 * time.Second,
			Dialer:  faultyDialer(netfault.Faults{MaxWriteChunk: 64, PropagationDelay: 200 * time.Microsecond}),
		},
		MaxRecords: 64,
		WaitMS:     200,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)

	pm := mapOver(t, 1, leader, follower)
	if pm.Owner(0).ID != leaderID {
		t.Fatalf("map owner %s, want %s", pm.Owner(0).ID, leaderID)
	}
	m := metrics.New()
	_, routerAddr := startRouter(t, pm, client.Options{
		Timeout: 5 * time.Second,
		Dialer:  faultyDialer(netfault.Faults{MaxWriteChunk: 48, PropagationDelay: 300 * time.Microsecond}),
	}, m)

	single := startNode(t, "single", nodeOpts{})
	viaRouter := dialT(t, routerAddr)
	viaSingle := dialT(t, single.addr)

	var entries []match.Entry
	for i := uint32(1); i <= 25; i++ {
		e := entryFor(i, fmt.Sprintf("chaos-%d", i%5), int64(i*3))
		entries = append(entries, e)
		// Semi-sync: when this returns nil the write is on the follower.
		if err := viaRouter.Upload(e); err != nil {
			t.Fatalf("acked upload %d failed: %v", i, err)
		}
		if err := viaSingle.Upload(e); err != nil {
			t.Fatal(err)
		}
	}

	want := make(map[profile.ID][]match.Result)
	for _, e := range entries {
		r, err := viaSingle.Query(e.ID, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[e.ID] = r
	}

	// Kill the leader. The follower stops pulling (promotion) and the
	// router's next request fails over to it.
	rep.Stop()
	leader.kill()

	for _, e := range entries {
		got, err := viaRouter.Query(e.ID, 5)
		if err != nil {
			t.Fatalf("query %d after promotion: %v", e.ID, err)
		}
		if !reflect.DeepEqual(got, want[e.ID]) {
			t.Fatalf("acked write lost: query %d = %+v, want %+v", e.ID, got, want[e.ID])
		}
	}
	snap := m.Snapshot()
	if v, _ := snap["router_retries"].(uint64); v == 0 {
		t.Errorf("router_retries = %v, want > 0 after leader loss", snap["router_retries"])
	}
}

// TestReplicatorSnapshotCatchup: a follower joining after the leader
// compacted its log bootstraps from the shipped checkpoint and tails the
// rest, converging to a byte-identical store.
func TestReplicatorSnapshotCatchup(t *testing.T) {
	leader := startNode(t, "lead", nodeOpts{segmentSize: 128})
	conn := dialT(t, leader.addr)
	for i := uint32(1); i <= 12; i++ {
		if err := conn.Upload(entryFor(i, fmt.Sprintf("snap-%d", i%3), int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := leader.journal.Checkpoint(leader.store); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.journal.WAL().ReadFrom(1, 1); err != wal.ErrCompacted {
		t.Fatalf("ReadFrom(1) after checkpoint = %v, want ErrCompacted (shrink the segment size?)", err)
	}
	for i := uint32(13); i <= 16; i++ {
		if err := conn.Upload(entryFor(i, "snap-tail", int64(i))); err != nil {
			t.Fatal(err)
		}
	}

	follower := startNode(t, "follow", nodeOpts{})
	rep, err := StartReplicator(ReplicatorConfig{
		NodeID:     "follow",
		LeaderAddr: leader.addr,
		Journal:    follower.journal,
		Store:      follower.store,
		MaxRecords: 4,
		WaitMS:     100,
		Logf:       t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)

	deadline := time.Now().Add(10 * time.Second)
	for rep.AppliedLSN() < leader.journal.WAL().LastLSN() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at LSN %d, leader at %d", rep.AppliedLSN(), leader.journal.WAL().LastLSN())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !rep.CaughtUp() {
		t.Error("CaughtUp() = false at leader high-water mark")
	}
	var ls, fs bytes.Buffer
	if err := leader.store.Snapshot(&ls); err != nil {
		t.Fatal(err)
	}
	if err := follower.store.Snapshot(&fs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ls.Bytes(), fs.Bytes()) {
		t.Fatal("follower store differs from leader store after snapshot catch-up")
	}
	lag := rep.LagStats()
	if lag["lag_records"] != 0 {
		t.Errorf("lag_records = %d after catch-up", lag["lag_records"])
	}
}

// TestRetiredClusterTypesRejected: type bytes 25–28 once carried the
// partition-map and partition-dump exchanges. They are retired, so
// neither a router's nor a leader's registry has a handler for them.
func TestRetiredClusterTypesRejected(t *testing.T) {
	newSrv := func() *server.Server {
		srv, err := server.New(server.Config{OPRF: testOPRF(t)})
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}
	pm, err := NewMap(4, testNodes(2))
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Map: pm})
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := newSrv()
	rt.Register(routerSrv)
	leaderSrv := newSrv()
	(&Leader{Acks: NewAckTracker()}).Register(leaderSrv.Service())
	for role, srv := range map[string]*server.Server{"router": routerSrv, "leader": leaderSrv} {
		for typ := wire.MsgType(25); typ <= 28; typ++ {
			if _, _, err := srv.Service().Handle(typ, nil, nil); !errors.Is(err, wire.ErrBadType) {
				t.Errorf("%s answered type %d with %v, want wire.ErrBadType", role, typ, err)
			}
		}
	}
}
