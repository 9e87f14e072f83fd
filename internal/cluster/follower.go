// Follower-side replication: a pull loop that keeps a byte-identical,
// LSN-aligned copy of the leader's journal and applies each shipped
// record through the crash-recovery replay path. Because the journal
// records are byte-stable across the leader's single and batch paths,
// "replicate" and "replay my own log after a crash" are literally the
// same code applying the same bytes.
package cluster

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/client"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/server"
	"smatch/internal/wire"
)

// ReplicatorConfig wires a follower's pull loop.
type ReplicatorConfig struct {
	// NodeID is this follower's stable identity for leader-side ack
	// bookkeeping. Required.
	NodeID string
	// LeaderAddr is the leader's address (a comma-separated seed list is
	// accepted, like any client address). Required.
	LeaderAddr string
	// Journal is the follower's own journal; shipped records are
	// appended to it before being applied, so a follower restart
	// recovers from its local WAL without re-shipping history. Required.
	Journal *server.Journal
	// Store is the follower's live matching store. Required.
	Store *match.Server
	// ClientOptions tune the upstream connection (timeouts, retries,
	// fault-injecting dialers in tests).
	ClientOptions client.Options
	// MaxRecords caps records per pull (0 = 512); WaitMS is the
	// long-poll budget sent with each pull (0 = 1000).
	MaxRecords uint32
	WaitMS     uint32
	// Metrics receives replication counters and the lag gauge; nil
	// disables recording.
	Metrics *metrics.Registry
	// Logf receives replication log lines; nil disables logging.
	Logf func(format string, args ...any)
}

// Replicator is a running follower pull loop.
type Replicator struct {
	cfg      ReplicatorConfig
	conn     *client.Conn
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}

	applied  atomic.Uint64 // last LSN appended+applied locally
	leaderHW atomic.Uint64 // leader's LastLSN from the most recent pull
	lagBytes atomic.Uint64 // estimated via average shipped record size
}

// StartReplicator dials the leader and starts the pull loop. The
// follower resumes from its own journal's high-water mark, so catch-up
// after a restart ships only what is missing (or a checkpoint when the
// leader compacted past it).
func StartReplicator(cfg ReplicatorConfig) (*Replicator, error) {
	if cfg.NodeID == "" || cfg.LeaderAddr == "" || cfg.Journal == nil || cfg.Store == nil {
		return nil, fmt.Errorf("cluster: replicator needs NodeID, LeaderAddr, Journal and Store")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.MaxRecords == 0 {
		cfg.MaxRecords = 512
	}
	if cfg.WaitMS == 0 {
		cfg.WaitMS = 1000
	}
	conn, err := client.Dial(cfg.LeaderAddr, cfg.ClientOptions)
	if err != nil {
		return nil, fmt.Errorf("cluster: dialing leader: %w", err)
	}
	r := &Replicator{
		cfg:  cfg,
		conn: conn,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	r.applied.Store(cfg.Journal.WAL().LastLSN())
	if m := cfg.Metrics; m != nil {
		m.RegisterGauge("replication_follower", func() any { return r.LagStats() })
	}
	go r.run()
	return r, nil
}

// AppliedLSN returns the last LSN this follower has durably applied.
func (r *Replicator) AppliedLSN() uint64 { return r.applied.Load() }

// LagStats reports how far this follower trails the leader's high-water
// mark, in records (exact, as of the last pull) and bytes (estimated
// from the average shipped record size).
func (r *Replicator) LagStats() map[string]uint64 {
	applied, hw := r.applied.Load(), r.leaderHW.Load()
	var lag uint64
	if hw > applied {
		lag = hw - applied
	}
	return map[string]uint64{
		"applied_lsn":         applied,
		"leader_lsn":          hw,
		"lag_records":         lag,
		"lag_bytes_estimated": lag * r.lagBytes.Load(),
	}
}

// CaughtUp reports whether the follower had applied everything the
// leader had committed as of its most recent pull.
func (r *Replicator) CaughtUp() bool {
	return r.applied.Load() >= r.leaderHW.Load()
}

// Stop ends the pull loop and closes the upstream connection. Safe to
// call more than once.
func (r *Replicator) Stop() {
	r.stopOnce.Do(func() {
		close(r.stop)
		r.conn.Close()
	})
	<-r.done
}

func (r *Replicator) run() {
	defer close(r.done)
	failures := 0
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		if err := r.pullOnce(); err != nil {
			failures++
			r.cfg.Logf("cluster: replication pull: %v", err)
			// The client's own redial/backoff already paced the failed
			// attempt; this delay just keeps a dead leader from spinning
			// the loop.
			delay := time.Duration(failures) * 100 * time.Millisecond
			if delay > 2*time.Second {
				delay = 2 * time.Second
			}
			select {
			case <-time.After(delay):
			case <-r.stop:
				return
			}
			continue
		}
		failures = 0
	}
}

// pullOnce performs one pull round trip and integrates the response.
func (r *Replicator) pullOnce() error {
	req := wire.ReplicatePullReq{
		NodeID:     r.cfg.NodeID,
		AfterLSN:   r.applied.Load(),
		MaxRecords: r.cfg.MaxRecords,
		WaitMS:     r.cfg.WaitMS,
	}
	payload, err := r.conn.Forward(wire.TypeReplicatePullReq, req.AppendEncode(nil), wire.TypeReplicatePullResp, true)
	if err != nil {
		return err
	}
	resp, err := wire.DecodeReplicatePullResp(payload)
	if err != nil {
		return err
	}
	r.leaderHW.Store(resp.LeaderLSN)
	if resp.Snapshot {
		return r.installSnapshot(resp)
	}
	if len(resp.Records) == 0 {
		return nil // caught up; next pull long-polls again
	}
	if resp.FirstLSN != req.AfterLSN+1 {
		return fmt.Errorf("cluster: pull after %d answered from %d", req.AfterLSN, resp.FirstLSN)
	}
	// The page is one group commit, so its records land at contiguous
	// local LSNs and checking the first checks them all.
	lsns, err := r.cfg.Journal.WAL().AppendBatch(resp.Records)
	if err != nil {
		return fmt.Errorf("cluster: journaling shipped records: %w", err)
	}
	if lsns[0] != resp.FirstLSN {
		// The local log has diverged from the leader's LSN space;
		// nothing sane can be applied past this point.
		return fmt.Errorf("cluster: shipped records from LSN %d landed at %d — log diverged", resp.FirstLSN, lsns[0])
	}
	// Every record is applied even if an earlier one fails, so a bad
	// record costs the store only itself. The pull cursor tracks the
	// local JOURNAL, not the store: once the page is durably appended it
	// must never be re-pulled — appending it a second time would shift
	// the local LSN space off the leader's and wedge the follower on the
	// divergence check above. So an apply error still advances the
	// cursor: the records are in the WAL, and restart recovery replays
	// the WAL into the store anyway. The error returned surfaces the
	// (store-only, until a restart or the next clean apply of an upsert)
	// divergence. The cursor moves after the applies, so a caller that
	// sees AppliedLSN reach an LSN finds the store past it too.
	var firstErr error
	var shippedBytes uint64
	for i, rec := range resp.Records {
		shippedBytes += uint64(len(rec))
		if err := server.ApplyRecord(r.cfg.Store, rec); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("cluster: applying journaled record %d to the store (journal is ahead; a restart replays it): %w", lsns[i], err)
		}
	}
	r.applied.Store(lsns[len(lsns)-1])
	r.lagBytes.Store(shippedBytes / uint64(len(resp.Records)))
	return firstErr
}

// installSnapshot adopts a leader checkpoint: the store is reconciled
// to exactly the snapshot's contents (upsert everything in it, remove
// everything not in it), the snapshot is installed as the follower's
// own checkpoint, and the local LSN space skips to the leader's. Runs
// on the pull loop, which is the journal's only writer on a follower —
// the precondition wal.InstallCheckpoint requires.
func (r *Replicator) installSnapshot(resp *wire.ReplicatePullResp) error {
	snap, err := match.Restore(bytes.NewReader(resp.Snap))
	if err != nil {
		return fmt.Errorf("cluster: decoding leader snapshot: %w", err)
	}
	inSnap := make(map[uint32]bool)
	if err := snap.ForEachEntry(func(e match.Entry) error {
		inSnap[uint32(e.ID)] = true
		return r.cfg.Store.Upload(e)
	}); err != nil {
		return err
	}
	var stale []match.Entry
	if err := r.cfg.Store.ForEachEntry(func(e match.Entry) error {
		if !inSnap[uint32(e.ID)] {
			stale = append(stale, e)
		}
		return nil
	}); err != nil {
		return err
	}
	for _, e := range stale {
		if err := r.cfg.Store.Remove(e.ID); err != nil {
			return err
		}
	}
	if err := r.cfg.Journal.WAL().InstallCheckpoint(resp.SnapLSN, r.cfg.Store.Snapshot); err != nil {
		return err
	}
	r.applied.Store(resp.SnapLSN)
	r.cfg.Logf("cluster: bootstrapped from leader checkpoint at LSN %d (%d entries)", resp.SnapLSN, len(inSnap))
	return nil
}
