// Command smatch-server runs the untrusted S-MATCH server: encrypted
// profile storage, top-k matching, and the RSA-OPRF evaluator clients use
// for fuzzy key generation, all over TCP+TLS (a self-signed certificate is
// generated at startup).
//
//	smatch-server -listen 127.0.0.1:7788 -oprf-bits 2048 -metrics 127.0.0.1:7789
//
// With -metrics, GET /metrics on the given address returns an expvar-style
// JSON document: operation counters, latency histograms (p50/p95/p99),
// connection gauges, and the store's bucket-size distribution. The same
// summary is logged every 30 seconds.
//
// With -wal DIR, every upload and remove is journaled (and fsynced,
// group-committed under load) to a write-ahead log before it is
// acknowledged, so a crash loses nothing: startup restores the newest
// checkpoint in DIR and replays the log tail. The WAL is the only thing
// kept on disk; without -wal a restart starts empty. -store FILE imports
// FILE into an empty -wal directory, once: each snapshot entry is
// journaled as an ordinary upload, after which -store is dropped.
//
// Connection lifecycle: every response write runs under -write-timeout so
// a stalled reader can't park a goroutine, -max-conns caps concurrent
// connections (overflow dials are turned away after a short backpressure
// window), and SIGINT/SIGTERM triggers a graceful drain — stop accepting,
// finish in-flight requests within -drain-timeout, then close.
//
// Every connection opens with a hello exchange (smatch tooling does this
// on dial; a connection whose first frame is anything else is refused
// with one error frame) and is then pipelined: up to -pipeline-depth
// requests in flight at once, handled by a worker pool and answered out
// of order by request ID.
//
// Clients can also register standing push subscriptions
// (smatch-client -cmd subscribe): when an uploaded profile lands within a
// subscription's distance threshold the server pushes a match
// notification without being asked. Each subscription's pending pushes
// are bounded by -notify-queue (overflow drops the oldest and counts it
// in /metrics — a slow subscriber never stalls uploads), and -max-subs
// caps subscriptions per connection.
//
// # Cluster mode
//
// Three additional roles distribute the store across processes (see
// DESIGN.md §17 and the README cluster quickstart):
//
//   - Partition leader: an ordinary -wal server; followers replicate it
//     by pulling WAL records over the wire. With -sync-repl each write is
//     acknowledged only after a follower confirms it (semi-synchronous).
//   - Follower: -replica-of LEADERADDR -node-id ID -wal DIR keeps a
//     byte-identical copy of the leader's journal, applying each shipped
//     record through the crash-recovery replay path. A follower serves
//     queries and is the promotion target when the leader dies.
//   - Router: -router -peers id=addr,id=addr -partitions N terminates
//     client connections (it holds the cluster's OPRF key), forwards each
//     upload/remove to the bucket's owning partition, scatters queries,
//     and relays push subscriptions from the owning partition. It stores
//     nothing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"smatch/internal/client"
	"smatch/internal/cluster"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/server"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

// options collects every flag; one struct so the role runners share it.
type options struct {
	listen       string
	oprfBits     int
	maxTopK      int
	maxConns     int
	pipeDepth    int
	notifyQueue  int
	maxSubs      int
	writeTimeout time.Duration
	drainTimeout time.Duration
	storePath    string
	walDir       string
	metricsAddr  string
	pprofAddr    string

	router     bool
	peers      string
	partitions uint
	nodeID     string
	replicaOf  string
	syncRepl   bool
}

func main() {
	var o options
	flag.StringVar(&o.listen, "listen", "127.0.0.1:7788", "address to listen on")
	flag.IntVar(&o.oprfBits, "oprf-bits", 2048, "RSA-OPRF modulus size")
	flag.IntVar(&o.maxTopK, "max-topk", 100, "cap on per-query result count")
	flag.IntVar(&o.maxConns, "max-conns", 0, "cap on concurrent connections (0 = unlimited); at the cap, accepts stop and overflow dials are turned away")
	flag.DurationVar(&o.writeTimeout, "write-timeout", 30*time.Second, "per-response write deadline; stalled readers are dropped")
	flag.IntVar(&o.pipeDepth, "pipeline-depth", 32, "per-connection cap on in-flight requests; also the worker count per connection")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 5*time.Second, "graceful-shutdown budget for in-flight requests before force-close")
	flag.IntVar(&o.notifyQueue, "notify-queue", 0, "per-subscription bound on queued push notifications (0 = default); overflow drops the oldest, counted in /metrics")
	flag.IntVar(&o.maxSubs, "max-subs", 0, "per-connection cap on standing push subscriptions (0 = default)")
	flag.StringVar(&o.storePath, "store", "", "import `FILE` into an empty -wal directory, once (a match snapshot; requires -wal)")
	flag.StringVar(&o.walDir, "wal", "", "write-ahead log directory: journal every mutation before acknowledging it, recover checkpoint+log at startup")
	flag.StringVar(&o.metricsAddr, "metrics", "", "serve GET /metrics (JSON) on this address; empty disables the endpoint")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (debug only — keep it on localhost, e.g. 127.0.0.1:6060); empty disables the endpoint")
	flag.BoolVar(&o.router, "router", false, "run as a cluster router: terminate clients, fan operations out to the -peers partition nodes, store nothing")
	flag.StringVar(&o.peers, "peers", "", "router only: comma-separated id=addr partition nodes, e.g. node-a=10.0.0.1:7788,node-b=10.0.0.2:7788")
	flag.UintVar(&o.partitions, "partitions", 16, "router only: partition count (power of two); fixed for the life of the cluster")
	flag.StringVar(&o.nodeID, "node-id", "", "this node's stable cluster identity (required with -replica-of)")
	flag.StringVar(&o.replicaOf, "replica-of", "", "run as a follower replicating the leader at this address (requires -wal and -node-id)")
	flag.BoolVar(&o.syncRepl, "sync-repl", false, "leader only: hold each write's ack until a follower confirms replication (requires -wal)")
	flag.Parse()

	err := validate(o)
	if err == nil {
		if o.router {
			err = runRouter(o)
		} else {
			err = run(o)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smatch-server:", err)
		os.Exit(1)
	}
}

// validate checks every rule that involves two or more flags, before any
// key is generated or file is touched.
func validate(o options) error {
	switch {
	case o.router && o.peers == "":
		return errors.New("-router requires -peers id=addr,...")
	case o.router && (o.walDir != "" || o.storePath != "" || o.replicaOf != "" || o.syncRepl):
		return errors.New("-router stores nothing: -wal, -store, -replica-of and -sync-repl are not allowed with it")
	case !o.router && o.peers != "":
		return errors.New("-peers requires -router")
	case o.syncRepl && o.walDir == "":
		return errors.New("-sync-repl requires -wal")
	case o.replicaOf != "" && (o.walDir == "" || o.nodeID == ""):
		return errors.New("-replica-of requires -wal and -node-id")
	case o.storePath != "" && o.walDir == "":
		return errors.New("-store requires -wal: it imports FILE into the -wal directory")
	case o.storePath != "" && o.replicaOf != "":
		return errors.New("-store is not allowed with -replica-of: a follower's state comes only from its leader")
	}
	return nil
}

// parsePeers turns "id=addr,id=addr" into cluster nodes.
func parsePeers(s string) ([]cluster.Node, error) {
	var nodes []cluster.Node
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, addr, ok := strings.Cut(part, "=")
		if !ok || id == "" || addr == "" {
			return nil, fmt.Errorf("malformed peer %q (want id=addr)", part)
		}
		nodes = append(nodes, cluster.Node{ID: id, Addr: addr})
	}
	if len(nodes) == 0 {
		return nil, errors.New("-peers lists no nodes (want id=addr,...)")
	}
	return nodes, nil
}

func newOPRF(bits int) (*oprf.Server, error) {
	log.Printf("generating %d-bit RSA-OPRF key...", bits)
	srv, err := oprf.NewServer(bits)
	if err != nil {
		return nil, err
	}
	pk := srv.PublicKey()
	log.Printf("OPRF public key: N=%d bits, e=%d", pk.N.BitLen(), pk.E)
	return srv, nil
}

// serverConfig is the server configuration every role shares; each role
// adds its own fields (the router its RemoteSubscriber, a storage node its
// Store and journals).
func (o options) serverConfig(oprfSrv *oprf.Server, reg *metrics.Registry) server.Config {
	return server.Config{
		OPRF:           oprfSrv,
		MaxTopK:        o.maxTopK,
		ReadTimeout:    60 * time.Second,
		WriteTimeout:   o.writeTimeout,
		MaxConns:       o.maxConns,
		PipelineDepth:  o.pipeDepth,
		DrainTimeout:   o.drainTimeout,
		NotifyQueueCap: o.notifyQueue,
		MaxSubsPerConn: o.maxSubs,
		Logf:           log.Printf,
		Metrics:        reg,
	}
}

// runRouter is the stateless role: terminate clients, fan out, merge.
func runRouter(o options) error {
	nodes, err := parsePeers(o.peers)
	if err != nil {
		return err
	}
	pm, err := cluster.NewMap(uint32(o.partitions), nodes)
	if err != nil {
		return err
	}
	oprfSrv, err := newOPRF(o.oprfBits)
	if err != nil {
		return err
	}
	reg := metrics.New()
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Map:           pm,
		ClientOptions: client.Options{Timeout: 30 * time.Second},
		Metrics:       reg,
		Logf:          log.Printf,
	})
	if err != nil {
		return err
	}
	cfg := o.serverConfig(oprfSrv, reg)
	cfg.RemoteSubscriber = rt.Subscribe
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	rt.Register(srv)
	addr, err := srv.Listen(o.listen)
	if err != nil {
		return err
	}
	log.Printf("router listening on %s (%d partitions over %d nodes)", addr, pm.NumPartitions, len(pm.Nodes))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	startDebugEndpoints(ctx, reg, o.metricsAddr, o.pprofAddr)

	err = srv.Serve(ctx)
	// Per-role drain order: client connections have drained (Serve
	// returned), so nothing is mid-flight on the upstream conns when
	// they close.
	rt.Close()
	log.Printf("router shut down")
	return err
}

// run is the storage role: single node, partition leader, or follower.
func run(o options) error {
	reg := metrics.New()
	store, journal, err := openState(o.walDir, o.storePath, reg)
	if err != nil {
		return err
	}
	if journal != nil {
		defer journal.Close()
	}
	oprfSrv, err := newOPRF(o.oprfBits)
	if err != nil {
		return err
	}
	acks := cluster.NewAckTracker()
	cfg := o.serverConfig(oprfSrv, reg)
	cfg.Store, cfg.Journal = store, journal
	if o.syncRepl {
		cfg.ServiceJournal = &cluster.SyncJournal{J: journal, Acks: acks}
		log.Printf("semi-synchronous replication: each write's ack waits for a follower")
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if journal != nil {
		// Any journaled node can be replicated from: serve follower pulls.
		ldr := &cluster.Leader{Journal: journal, Acks: acks, Metrics: reg}
		ldr.Register(srv.Service())
	}
	if o.replicaOf != "" {
		rep, err := cluster.StartReplicator(cluster.ReplicatorConfig{
			NodeID:        o.nodeID,
			LeaderAddr:    o.replicaOf,
			Journal:       journal,
			Store:         srv.Store(),
			ClientOptions: client.Options{Timeout: 30 * time.Second},
			Metrics:       reg,
			Logf:          log.Printf,
		})
		if err != nil {
			return err
		}
		// Per-role drain order: the replicator is this journal's writer,
		// so it stops (LIFO, before the deferred journal.Close) once
		// Serve has drained.
		defer rep.Stop()
		log.Printf("replicating from %s as %q (local LSN %d)", o.replicaOf, o.nodeID, rep.AppliedLSN())
	}
	addr, err := srv.Listen(o.listen)
	if err != nil {
		return err
	}
	log.Printf("listening on %s (TLS, self-signed)", addr)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	startDebugEndpoints(ctx, reg, o.metricsAddr, o.pprofAddr)

	go func() {
		ticker := time.NewTicker(30 * time.Second)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
				log.Printf("stored profiles: %d in %d key buckets | %s",
					srv.Store().NumUsers(), srv.Store().NumBuckets(), reg.Summary())
			}
		}
	}()
	if journal != nil {
		// Periodic checkpoints bound recovery time and prune WAL segments.
		go func() {
			ticker := time.NewTicker(5 * time.Minute)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := journal.Checkpoint(srv.Store()); err != nil {
						log.Printf("periodic checkpoint: %v", err)
					}
				}
			}
		}()
	}

	err = srv.Serve(ctx)
	if journal != nil {
		if serr := journal.Checkpoint(srv.Store()); serr != nil {
			log.Printf("final checkpoint: %v", serr)
		} else {
			log.Printf("final checkpoint written (%d users)", srv.Store().NumUsers())
		}
	}
	log.Printf("shut down")
	return err
}

// startDebugEndpoints serves /metrics and pprof when configured, each on
// its own listener, both shut down when ctx ends.
func startDebugEndpoints(ctx context.Context, reg *metrics.Registry, metricsAddr, pprofAddr string) {
	if metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", reg.Handler())
		msrv := &http.Server{Addr: metricsAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("metrics on http://%s/metrics", metricsAddr)
			if err := msrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("metrics server: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = msrv.Shutdown(shutdownCtx)
		}()
	}
	if pprofAddr != "" {
		// Debug-only profiling endpoint (CPU/heap/goroutine/block profiles
		// for `go tool pprof`). It exposes internals and serves uncapped
		// work, so bind it to localhost; it is intentionally separate from
		// -metrics, which is safe to scrape in production.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		psrv := &http.Server{Addr: pprofAddr, Handler: mux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			log.Printf("pprof on http://%s/debug/pprof/ (debug only)", pprofAddr)
			if err := psrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("pprof server: %v", err)
			}
		}()
		go func() {
			<-ctx.Done()
			shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = psrv.Shutdown(shutdownCtx)
		}()
	}
}

// openState assembles the store and its write-ahead log from the -wal and
// -store flags. The WAL directory is the only durable state: recovery
// restores its newest checkpoint and replays the log tail.
//
// -store FILE is a one-shot import into an empty WAL. Each snapshot entry
// is journaled as an ordinary upload record, LSNs 1..n, rather than
// checkpointed at LSN 0: a checkpoint at LSN 0 is invisible to
// wal.ReadFrom, so followers would never receive the imported users,
// whereas upload records reach them like any other write and replay
// through the crash-recovery path. FILE is read in full before the WAL is
// opened, so a missing or corrupt FILE leaves the WAL untouched; a WAL
// that already holds state refuses the import.
func openState(walDir, storePath string, reg *metrics.Registry) (*match.Server, *server.Journal, error) {
	if walDir == "" {
		log.Printf("no -wal: nothing is kept on disk, a restart starts empty")
		return nil, nil, nil
	}
	var imported *match.Server
	if storePath != "" {
		var err error
		if imported, err = loadStore(storePath); err != nil {
			return nil, nil, err
		}
	}
	journal, store, recovered, err := server.OpenJournal(wal.Options{Dir: walDir, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	switch {
	case recovered && imported != nil:
		last := journal.WAL().LastLSN()
		journal.Close()
		return nil, nil, fmt.Errorf("-store %s: -wal %s already holds state (last LSN %d); the import runs once, into an empty WAL, so drop -store",
			storePath, walDir, last)
	case recovered:
		log.Printf("recovered %d users from WAL %s (checkpoint LSN %d, last LSN %d)",
			store.NumUsers(), walDir, journal.WAL().CheckpointLSN(), journal.WAL().LastLSN())
	case imported != nil:
		if err := importStore(journal, imported); err != nil {
			journal.Close()
			return nil, nil, fmt.Errorf("-store %s: importing into -wal %s: %w", storePath, walDir, err)
		}
		store = imported
		log.Printf("imported %d users from %s into WAL %s (LSNs 1..%d); restart without -store",
			store.NumUsers(), storePath, walDir, journal.WAL().LastLSN())
	}
	return store, journal, nil
}

// loadStore restores the -store snapshot; a missing file is an error.
func loadStore(path string) (*match.Server, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("-store: %w", err)
	}
	defer f.Close()
	store, err := match.Restore(f)
	if err != nil {
		return nil, fmt.Errorf("-store: restoring %s: %w", path, err)
	}
	return store, nil
}

// importStore journals every entry of store as an upload record, one
// group commit per wire.MaxUploadBatch entries.
func importStore(journal *server.Journal, store *match.Server) error {
	batch := make([]*wire.UploadReq, 0, wire.MaxUploadBatch)
	flush := func() error {
		err := journal.AppendUploadBatch(batch)
		batch = batch[:0]
		return err
	}
	err := store.ForEachEntry(func(e match.Entry) error {
		req := wire.UploadReqOf(e)
		batch = append(batch, &req)
		if len(batch) < wire.MaxUploadBatch {
			return nil
		}
		return flush()
	})
	if err == nil && len(batch) > 0 {
		err = flush()
	}
	return err
}
