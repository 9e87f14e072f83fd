// Leader-side replication: answering follower pulls off the WAL,
// tracking follower acknowledgements, and (optionally) holding client
// acks until a follower has the write — semi-synchronous replication.
package cluster

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"time"

	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/service"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

// AckTracker records each follower's replication high-water mark. A
// pull for records after LSN x is the follower's statement that
// everything at or below x is durably applied on its side; WaitAny
// turns that into the semi-sync ack barrier.
type AckTracker struct {
	mu    sync.Mutex
	acks  map[string]uint64
	bcast chan struct{} // closed and replaced on every ack advance
}

// NewAckTracker returns an empty tracker.
func NewAckTracker() *AckTracker {
	return &AckTracker{acks: make(map[string]uint64), bcast: make(chan struct{})}
}

// Ack records that node has durably applied every record with LSN <= lsn.
func (t *AckTracker) Ack(node string, lsn uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if lsn <= t.acks[node] {
		return
	}
	t.acks[node] = lsn
	close(t.bcast)
	t.bcast = make(chan struct{})
}

// Max returns the highest acknowledged LSN across followers — the
// cluster's replicated high-water mark under single-follower semi-sync.
func (t *AckTracker) Max() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var m uint64
	for _, lsn := range t.acks {
		if lsn > m {
			m = lsn
		}
	}
	return m
}

// Acks returns a copy of the per-node high-water marks (for the
// replication-lag gauge).
func (t *AckTracker) Acks() map[string]uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]uint64, len(t.acks))
	for n, lsn := range t.acks {
		out[n] = lsn
	}
	return out
}

// WaitAny blocks until at least one follower has acknowledged lsn, or
// the timeout elapses. Reports whether the ack arrived.
func (t *AckTracker) WaitAny(lsn uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		t.mu.Lock()
		var m uint64
		for _, a := range t.acks {
			if a > m {
				m = a
			}
		}
		ch := t.bcast
		t.mu.Unlock()
		if m >= lsn {
			return true
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return t.Max() >= lsn
		}
	}
}

// SyncJournal wraps a leader's local journal with a semi-synchronous
// replication barrier: every mutation is appended (and fsynced) locally
// exactly as before, and then the ack is additionally held until at
// least one follower has pulled past the record's LSN. A timeout
// surfaces as an error to the client — the record IS durable locally
// (and will ship when a follower reconnects), but the client is told
// the truth: the cluster did not confirm replication, so a leader loss
// right now could serve stale reads from the promoted follower.
type SyncJournal struct {
	J       *server.Journal
	Acks    *AckTracker
	Timeout time.Duration // zero means 5s
}

var _ service.Journal = (*SyncJournal)(nil)

// Begin delegates to the wrapped journal's checkpoint barrier.
func (s *SyncJournal) Begin() func() { return s.J.Begin() }

// AppendUploadBatch journals locally, then waits for a follower ack.
func (s *SyncJournal) AppendUploadBatch(reqs []*wire.UploadReq) error {
	if err := s.J.AppendUploadBatch(reqs); err != nil {
		return err
	}
	return s.waitReplicated()
}

// AppendRemove journals locally, then waits for a follower ack.
func (s *SyncJournal) AppendRemove(id profile.ID) error {
	if err := s.J.AppendRemove(id); err != nil {
		return err
	}
	return s.waitReplicated()
}

// waitReplicated holds the ack until a follower has everything this
// journal has committed so far. Using the journal's current LastLSN
// rather than the exact record LSN is conservative (it may wait on a
// few records committed just after ours) and keeps the wrapper free of
// journal internals.
func (s *SyncJournal) waitReplicated() error {
	lsn := s.J.WAL().LastLSN()
	timeout := s.Timeout
	if timeout == 0 {
		timeout = 5 * time.Second
	}
	if !s.Acks.WaitAny(lsn, timeout) {
		return fmt.Errorf("cluster: write durable locally but not replicated within %v (LSN %d, follower high-water %d)", timeout, lsn, s.Acks.Max())
	}
	return nil
}

// Leader serves the replication side of a partition owner: followers
// pull WAL records (TypeReplicatePullReq) and their pulls feed Acks.
type Leader struct {
	Journal *server.Journal
	// Store is unread: nothing in the leader walks the store any more.
	// It stays so the benchmark harness, which sets it, still builds.
	Store   *match.Server
	Acks    *AckTracker
	Metrics *metrics.Registry
	// MaxWait caps a pull's long-poll budget regardless of what the
	// follower asks for. Zero means 10s.
	MaxWait time.Duration
}

// Register installs the leader's handlers on a server's service
// registry (between server.New and Serve) and the replication-lag
// gauge on its metrics registry.
func (l *Leader) Register(svc *service.Registry) {
	svc.Register(wire.TypeReplicatePullReq, l.handlePull)
	if l.Metrics != nil {
		l.Metrics.RegisterGauge("replication_followers", func() any { return l.lagStats() })
	}
}

// lagStats reports per-follower lag behind the leader's high-water
// mark: exact in records, approximate in bytes (records behind times
// the WAL's average record size — the WAL indexes by LSN, not offset).
func (l *Leader) lagStats() map[string]any {
	last := l.Journal.WAL().LastLSN()
	var avg uint64
	if m := l.Metrics; m != nil {
		if n := m.WALAppends.Load(); n > 0 {
			avg = m.WALAppendedBytes.Load() / n
		}
	}
	followers := make(map[string]any)
	for node, ack := range l.Acks.Acks() {
		var behind uint64
		if last > ack {
			behind = last - ack
		}
		followers[node] = map[string]uint64{
			"acked_lsn":           ack,
			"lag_records":         behind,
			"lag_bytes_estimated": behind * avg,
		}
	}
	return map[string]any{"leader_lsn": last, "followers": followers}
}

// handlePull answers one follower pull: ack bookkeeping, then records
// from the WAL — long-polling via WaitFor when caught up — or the
// newest checkpoint when the requested range was compacted away.
func (l *Leader) handlePull(payload, respBuf []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeReplicatePullReq(payload)
	if err != nil {
		return 0, nil, err
	}
	l.Acks.Ack(req.NodeID, req.AfterLSN)
	if m := l.Metrics; m != nil {
		m.ReplicationPulls.Add(1)
	}
	w := l.Journal.WAL()
	max := int(req.MaxRecords)
	if max == 0 {
		max = 512
	}
	from := req.AfterLSN + 1
	recs, err := w.ReadFrom(from, max)
	if err == nil && len(recs) == 0 && req.WaitMS > 0 {
		// Caught up: long-poll for new commits within the wait budget.
		wait := time.Duration(req.WaitMS) * time.Millisecond
		maxWait := l.MaxWait
		if maxWait == 0 {
			maxWait = 10 * time.Second
		}
		if wait > maxWait {
			wait = maxWait
		}
		if w.WaitFor(from, wait) {
			recs, err = w.ReadFrom(from, max)
		}
	}
	if err == wal.ErrCompacted {
		return l.pullSnapshot(w, respBuf)
	}
	if err != nil {
		return 0, nil, err
	}
	resp := wire.ReplicatePullResp{LeaderLSN: w.LastLSN(), FirstLSN: from, Records: recs}
	if m := l.Metrics; m != nil {
		m.ReplicationRecordsShipped.Add(uint64(len(recs)))
		var bytes uint64
		for _, r := range recs {
			bytes += uint64(len(r))
		}
		m.ReplicationBytesShipped.Add(bytes)
	}
	return wire.TypeReplicatePullResp, resp.AppendEncode(respBuf), nil
}

// pullSnapshot answers a pull whose range was compacted: ship the
// newest checkpoint so the follower can bootstrap and resume after its
// LSN. A leader checkpoint is a store snapshot; it must fit in one v2
// frame (wire.MaxFrameSize), which bounds snapshot-shipped stores —
// bigger stores keep followers close enough that they never fall
// behind a compaction (see DESIGN §17).
func (l *Leader) pullSnapshot(w *wal.WAL, respBuf []byte) (wire.MsgType, []byte, error) {
	rc, lsn, ok, err := w.LatestCheckpoint()
	if err != nil {
		return 0, nil, err
	}
	if !ok {
		return 0, nil, fmt.Errorf("cluster: pull range compacted but no checkpoint exists")
	}
	defer rc.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, rc); err != nil {
		return 0, nil, err
	}
	// A response frame that cannot be written would otherwise surface as
	// an opaque per-pull frame error on both sides, forever; name the
	// actual problem (and count it) so the operator sees why a follower
	// can never bootstrap.
	const snapOverhead = 1 + 8 + 8 + 4 // kind + LeaderLSN + SnapLSN + length prefix
	if buf.Len()+snapOverhead > wire.MaxFrameSize {
		if m := l.Metrics; m != nil {
			m.ReplicationSnapshotOversize.Add(1)
		}
		return 0, nil, fmt.Errorf("cluster: leader checkpoint is %d bytes but a replication frame caps at %d — this follower fell behind a compaction and cannot catch up; keep followers closer than the compaction horizon or shrink the store (DESIGN §17)", buf.Len(), wire.MaxFrameSize)
	}
	if m := l.Metrics; m != nil {
		m.ReplicationSnapshots.Add(1)
		m.ReplicationBytesShipped.Add(uint64(buf.Len()))
	}
	resp := wire.ReplicatePullResp{Snapshot: true, LeaderLSN: w.LastLSN(), SnapLSN: lsn, Snap: buf.Bytes()}
	return wire.TypeReplicatePullResp, resp.AppendEncode(respBuf), nil
}
