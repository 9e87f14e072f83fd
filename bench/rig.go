package main

// The systems under test, all in this process on loopback TLS: a single
// node (with or without a WAL) and a routed cluster of two semi-sync
// partition leaders with one follower each.

import (
	"context"
	"crypto/x509"
	"encoding/pem"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"smatch/internal/client"
	"smatch/internal/cluster"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/server"
	"smatch/internal/wal"
)

// benchDir is where the benchmark lives relative to the checkout root it
// is run from; the test overrides it.
var benchDir = "bench"

const requestTimeout = 30 * time.Second

// loadOPRF reads the checked-in 2048-bit key: a fixed key makes key
// hashes, OPE keys and therefore rankings and recall repeat for a seed.
func loadOPRF() (*oprf.Server, error) {
	raw, err := os.ReadFile(filepath.Join(benchDir, "testdata", "oprf_rsa2048.pem"))
	if err != nil {
		return nil, err
	}
	block, _ := pem.Decode(raw)
	if block == nil {
		return nil, errors.New("rig: no PEM block in the OPRF key file")
	}
	key, err := x509.ParsePKCS1PrivateKey(block.Bytes)
	if err != nil {
		return nil, fmt.Errorf("rig: parsing the OPRF key: %w", err)
	}
	return oprf.NewServerFromKey(key)
}

// wireCount sums the bytes crossing the benchmark's client sockets, TLS
// records and handshakes included.
type wireCount struct{ in, out atomic.Int64 }

func (w *wireCount) total() int64 { return w.in.Load() + w.out.Load() }

type countedConn struct {
	net.Conn
	w *wireCount
}

func (c countedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.w.in.Add(int64(n))
	return n, err
}

func (c countedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.out.Add(int64(n))
	return n, err
}

func (w *wireCount) dialer(network, addr string) (net.Conn, error) {
	raw, err := net.DialTimeout(network, addr, requestTimeout)
	if err != nil {
		return nil, err
	}
	return countedConn{raw, w}, nil
}

// node is one running server with whatever state it owns.
type node struct {
	srv     *server.Server
	addr    string
	store   *match.Server
	journal *server.Journal
	reg     *metrics.Registry
	stop    func()
}

// startNode serves cfg on a loopback port until stop; prepare, if any,
// installs extra handlers before the server starts serving.
func startNode(cfg server.Config, prepare func(*server.Server)) (*node, error) {
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.New()
	}
	cfg.ReadTimeout = 5 * time.Minute
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	if prepare != nil {
		prepare(srv)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ctx) }()
	return &node{srv: srv, addr: addr.String(), store: srv.Store(), journal: cfg.Journal, reg: cfg.Metrics,
		stop: func() { cancel(); <-done }}, nil
}

// rig is a system under test plus the client connections driving it.
type rig struct {
	front     *node   // what clients dial: the single node, or the router's server
	nodes     []*node // storage nodes; for a cluster the two leaders
	byID      map[string]*node
	followers []*node
	reps      []*cluster.Replicator
	router    *cluster.Router
	pmap      *cluster.PartitionMap
	walDirs   []string // leaders' WAL directories, "" when memory-only
	conns     []*client.Conn
	wire      wireCount
	closers   []func()
}

func (r *rig) close() {
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// dialWarm connects to addr (through dialer, if any) without retries, so
// that a failure surfaces, and makes the first request, which negotiates
// v2, so that no measured op pays for the handshake.
func dialWarm(addr string, dialer func(network, addr string) (net.Conn, error)) (*client.Conn, error) {
	c, err := client.Dial(addr, client.Options{Timeout: requestTimeout, Dialer: dialer, MaxRetries: -1})
	if err != nil {
		return nil, err
	}
	if _, err := c.OPRFPublicKey(); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// dial opens n counted client connections to the front node.
func (r *rig) dial(n int) error {
	for i := 0; i < n; i++ {
		c, err := dialWarm(r.front.addr, r.wire.dialer)
		if err != nil {
			return err
		}
		r.conns = append(r.conns, c)
	}
	return nil
}

// journaledNode opens (or recovers) a WAL-backed store in dir and serves
// it. leader additionally answers replication pulls and holds each ack
// until a follower has the write (semi-sync). segmentSize 0 is the WAL's
// default.
func (r *rig) journaledNode(oprfSrv *oprf.Server, dir string, leader bool, segmentSize int64) (*node, error) {
	reg := metrics.New()
	j, store, _, err := server.OpenJournal(wal.Options{Dir: dir, Metrics: reg, SegmentSize: segmentSize})
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, func() { j.Close() })
	cfg := server.Config{OPRF: oprfSrv, Store: store, Journal: j, Metrics: reg}
	var prepare func(*server.Server)
	if leader {
		acks := cluster.NewAckTracker()
		cfg.ServiceJournal = &cluster.SyncJournal{J: j, Acks: acks}
		prepare = func(srv *server.Server) {
			(&cluster.Leader{Journal: j, Store: store, Acks: acks, Metrics: reg}).Register(srv.Service())
		}
	}
	n, err := startNode(cfg, prepare)
	if err != nil {
		return nil, err
	}
	r.closers = append(r.closers, n.stop)
	return n, nil
}

// newSingleRig serves store from one node. walDir "" means memory-only
// (store may be preloaded); otherwise the store is the one OpenJournal
// recovers from walDir and every mutation is fsynced before its ack.
func newSingleRig(oprfSrv *oprf.Server, store *match.Server, walDir string) (*rig, error) {
	r := &rig{walDirs: []string{walDir}}
	var n *node
	var err error
	if walDir == "" {
		if n, err = startNode(server.Config{OPRF: oprfSrv, Store: store}, nil); err == nil {
			r.closers = append(r.closers, n.stop)
		}
	} else {
		n, err = r.journaledNode(oprfSrv, walDir, false, 0)
	}
	if err != nil {
		r.close()
		return nil, err
	}
	r.front, r.nodes = n, []*node{n}
	return r, nil
}

const clusterPartitions = 8

// clusterSegment is the WAL segment size of the cluster's nodes. A
// follower pull makes the leader read every segment file from the pulled
// LSN on, whole (wal.ReadFrom), so at the default 64 MiB, which is what
// smatch-server runs with, a pull re-reads the log's whole tail and costs
// more with every write since the last checkpoint: op latency then climbs
// through a run and says how long the run has lasted. At 1 MiB a pull
// costs at most about a segment and the workload is stationary. The cost
// at the default is priced by itself, as wal.tail_read_us of the traced
// run (layers.go). A single node's WAL keeps the default: nothing reads
// it back while it serves.
const clusterSegment = 1 << 20

var leaderIDs = []string{"leader-a", "leader-b"}

// ownership maps a bucket to the leader that will own it. Placement
// depends on node IDs only, so it is known before any node has an address.
func ownership() (*cluster.PartitionMap, error) {
	var members []cluster.Node
	for _, id := range leaderIDs {
		members = append(members, cluster.Node{ID: id, Addr: id})
	}
	pm, err := cluster.NewMap(clusterPartitions, members)
	if err != nil {
		return nil, err
	}
	owners := map[string]bool{}
	for p := uint32(0); p < clusterPartitions; p++ {
		owners[pm.Owner(p).ID] = true
	}
	if len(owners) != len(members) {
		return nil, errors.New("rig: a leader owns no partition; change the node IDs")
	}
	return pm, nil
}

// newClusterRig starts two semi-sync leaders, a follower replicating
// each, and a router in front; WAL directories live under dir. load, if
// any, fills a node's journal and store with its leader's share before
// replication starts: leader and follower get the same records in the
// same order, so their logs are LSN-aligned the way a follower restored
// from its leader's backup is. Each leader then checkpoints, as a serving
// node does periodically, so the log tail followers pull from starts
// empty.
func newClusterRig(oprfSrv *oprf.Server, dir string, load func(leaderID string, n *node) error) (*rig, error) {
	r := &rig{byID: map[string]*node{}}
	fail := func(err error) (*rig, error) { r.close(); return nil, err }
	var members []cluster.Node
	for i, id := range leaderIDs {
		ldir := filepath.Join(dir, id)
		n, err := r.journaledNode(oprfSrv, ldir, true, clusterSegment)
		if err != nil {
			return fail(err)
		}
		r.nodes, r.walDirs, r.byID[id] = append(r.nodes, n), append(r.walDirs, ldir), n
		members = append(members, cluster.Node{ID: id, Addr: n.addr})
		f, err := r.journaledNode(oprfSrv, filepath.Join(dir, fmt.Sprintf("follower-%d", i)), false, clusterSegment)
		if err != nil {
			return fail(err)
		}
		if load != nil {
			errs := make(chan error, 2) // one send per node below
			for _, member := range []*node{n, f} {
				go func() { errs <- load(id, member) }()
			}
			if err := errors.Join(<-errs, <-errs); err != nil {
				return fail(err)
			}
			if err := n.journal.Checkpoint(n.store); err != nil {
				return fail(err)
			}
		}
		rep, err := cluster.StartReplicator(cluster.ReplicatorConfig{
			NodeID: fmt.Sprintf("follower-%d", i), LeaderAddr: n.addr, Journal: f.journal, Store: f.store,
			ClientOptions: client.Options{Timeout: requestTimeout}, Metrics: f.reg, WaitMS: 200,
		})
		if err != nil {
			return fail(err)
		}
		r.closers = append(r.closers, rep.Stop)
		r.followers, r.reps = append(r.followers, f), append(r.reps, rep)
	}
	pm, err := cluster.NewMap(clusterPartitions, members)
	if err != nil {
		return fail(err)
	}
	reg := metrics.New()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Map: pm, ClientOptions: client.Options{Timeout: requestTimeout}, Metrics: reg})
	if err != nil {
		return fail(err)
	}
	r.closers = append(r.closers, rt.Close)
	front, err := startNode(server.Config{OPRF: oprfSrv, Metrics: reg, RemoteSubscriber: rt.Subscribe}, rt.Register)
	if err != nil {
		return fail(err)
	}
	r.closers = append(r.closers, front.stop)
	r.front, r.router, r.pmap = front, rt, pm
	return r, nil
}

// leaderOf returns the storage node that owns keyHash.
func (r *rig) leaderOf(keyHash []byte) *node {
	if r.pmap == nil {
		return r.nodes[0]
	}
	return r.byID[r.pmap.OwnerOf(keyHash).ID]
}

// caughtUp waits until every follower has applied its leader's log.
func (r *rig) caughtUp(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for i, rep := range r.reps {
			if rep.AppliedLSN() < r.nodes[i].journal.WAL().LastLSN() || !rep.CaughtUp() {
				ok = false
			}
		}
		if ok || time.Now().After(deadline) {
			return ok
		}
		time.Sleep(5 * time.Millisecond)
	}
}
