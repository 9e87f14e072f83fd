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
// checkpoint in DIR and replays the log tail. Without -wal, only -store's
// periodic snapshot survives a crash — up to 5 minutes of acknowledged
// uploads do not. -wal and -store compose: checkpoints are mirrored to the
// -store snapshot path, and a pre-existing -store snapshot seeds a fresh
// WAL directory.
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
// DESIGN.md §14 and the README cluster quickstart):
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
	"path/filepath"
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
	flag.StringVar(&o.storePath, "store", "", "snapshot file: restored at startup, saved on shutdown and every 5 minutes")
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

	var err error
	if o.router {
		err = runRouter(o)
	} else {
		err = run(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smatch-server:", err)
		os.Exit(1)
	}
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
		return nil, errors.New("-router requires -peers id=addr,...")
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
	srv, err := server.New(server.Config{
		OPRF:             oprfSrv,
		MaxTopK:          o.maxTopK,
		ReadTimeout:      60 * time.Second,
		WriteTimeout:     o.writeTimeout,
		MaxConns:         o.maxConns,
		PipelineDepth:    o.pipeDepth,
		DrainTimeout:     o.drainTimeout,
		NotifyQueueCap:   o.notifyQueue,
		MaxSubsPerConn:   o.maxSubs,
		Logf:             log.Printf,
		Metrics:          reg,
		RemoteSubscriber: rt.Subscribe,
	})
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
	oprfSrv, err := newOPRF(o.oprfBits)
	if err != nil {
		return err
	}
	reg := metrics.New()
	store, journal, err := openState(o.walDir, o.storePath, reg)
	if err != nil {
		return err
	}
	if journal != nil {
		defer journal.Close()
	}
	acks := cluster.NewAckTracker()
	cfg := server.Config{
		OPRF:          oprfSrv,
		MaxTopK:       o.maxTopK,
		ReadTimeout:   60 * time.Second,
		WriteTimeout:  o.writeTimeout,
		MaxConns:      o.maxConns,
		PipelineDepth: o.pipeDepth,
		DrainTimeout:  o.drainTimeout,

		NotifyQueueCap: o.notifyQueue,
		MaxSubsPerConn: o.maxSubs,
		Logf:           log.Printf,
		Store:          store,
		Metrics:        reg,
		Journal:        journal,
	}
	if o.syncRepl {
		if journal == nil {
			return errors.New("-sync-repl requires -wal")
		}
		cfg.ServiceJournal = &cluster.SyncJournal{J: journal, Acks: acks}
		log.Printf("semi-synchronous replication: each write's ack waits for a follower")
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if journal != nil {
		// Any journaled node can be replicated from: serve follower pulls
		// and rebalance dumps.
		ldr := &cluster.Leader{Journal: journal, Store: srv.Store(), Acks: acks, Metrics: reg}
		ldr.Register(srv.Service())
	}
	if o.replicaOf != "" {
		if journal == nil || o.nodeID == "" {
			return errors.New("-replica-of requires -wal and -node-id")
		}
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
	log.Printf("listening on %s (TLS, self-signed, %d store shards)", addr, srv.Store().NumShards())

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
	if o.storePath != "" || journal != nil {
		go func() {
			ticker := time.NewTicker(5 * time.Minute)
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					if err := checkpointState(srv.Store(), journal, o.storePath); err != nil {
						log.Printf("periodic checkpoint: %v", err)
					}
				}
			}
		}()
	}

	err = srv.Serve(ctx)
	if o.storePath != "" || journal != nil {
		if serr := checkpointState(srv.Store(), journal, o.storePath); serr != nil {
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

// openState assembles the store and (optionally) its write-ahead log from
// the -wal and -store flags.
//
// With -wal, the WAL directory is the source of truth: recovery restores
// the newest checkpoint and replays the log tail. A -store snapshot is
// consulted only when the WAL directory holds no prior state (first boot
// after enabling -wal): the snapshot seeds the store and is immediately
// checkpointed into the WAL so the directory is self-contained from then
// on. Without -wal, the legacy snapshot-only path is unchanged.
func openState(walDir, storePath string, reg *metrics.Registry) (*match.Server, *server.Journal, error) {
	if walDir == "" {
		store, err := loadStore(storePath)
		return store, nil, err
	}
	journal, store, recovered, err := server.OpenJournal(wal.Options{Dir: walDir, Metrics: reg})
	if err != nil {
		return nil, nil, err
	}
	switch {
	case recovered:
		log.Printf("recovered %d users from WAL %s (checkpoint LSN %d, last LSN %d)",
			store.NumUsers(), walDir, journal.WAL().CheckpointLSN(), journal.WAL().LastLSN())
	case storePath != "":
		seed, err := loadStore(storePath)
		if err != nil {
			journal.Close()
			return nil, nil, err
		}
		if seed != nil {
			store = seed
			if err := journal.Checkpoint(store); err != nil {
				journal.Close()
				return nil, nil, fmt.Errorf("seeding WAL from %s: %w", storePath, err)
			}
			log.Printf("seeded WAL %s from snapshot %s (%d users)", walDir, storePath, store.NumUsers())
		}
	}
	return store, journal, nil
}

// checkpointState makes the current store state durable: a WAL checkpoint
// (which also prunes covered segments) when the journal is enabled, and a
// -store snapshot when that path is configured. With both flags set the
// WAL checkpoint is mirrored to the store path, keeping the legacy
// snapshot loadable by older tooling.
func checkpointState(store *match.Server, journal *server.Journal, storePath string) error {
	if journal != nil {
		if err := journal.Checkpoint(store); err != nil {
			return err
		}
	}
	if storePath != "" {
		return saveStore(store, storePath)
	}
	return nil
}

// loadStore restores a snapshot if the file exists; a missing (or
// unconfigured) file starts an empty store (first run).
func loadStore(path string) (*match.Server, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		log.Printf("no snapshot at %s; starting empty", path)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := match.Restore(f)
	if err != nil {
		return nil, fmt.Errorf("restoring %s: %w", path, err)
	}
	log.Printf("restored %d users from %s", store.NumUsers(), path)
	return store, nil
}

// saveStore writes a snapshot atomically AND durably: the rename is only
// crash-atomic if the bytes it publishes are on disk first, so the temp
// file is fsynced before the rename and the parent directory after it
// (otherwise power loss can leave the new name pointing at a hole, or the
// old name pointing at nothing).
func saveStore(store *match.Server, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := store.Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
