// Log shipping: the read side of replication. A leader streams committed
// records to followers straight off its segment files — ReadFrom serves a
// range of LSNs, WaitFor turns a caught-up reader into a long-poll tail
// follower, and InstallCheckpoint lets a follower bootstrap its own log
// from a leader snapshot whose LSN is beyond anything the follower holds.
//
// Reading committed records concurrently with appends is safe without
// holding mu across the I/O: commitLocked writes and fsyncs a batch
// BEFORE bumping the segment's record count, so any count observed under
// mu describes fully written, durable bytes. A reader snapshots the
// segment metadata, then parses at most that many records from each file;
// bytes a concurrent commit appends past the snapshot are simply not
// parsed. Records are delivered exactly once per LSN by construction —
// LSNs are dense, so the reader's cursor arithmetic cannot skip or
// duplicate.
package wal

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// ErrCompacted reports that the requested LSN has been pruned by a
// checkpoint: the records no longer exist as log entries, and the reader
// must restart from the newest checkpoint (LatestCheckpoint) instead.
var ErrCompacted = errors.New("wal: requested LSN compacted into a checkpoint")

// ReadFrom returns committed records with LSNs from, from+1, ... —
// at most max of them (max <= 0 means an internal default of 1024). It
// returns nil when `from` is past the last committed record, and
// ErrCompacted when `from` precedes the oldest retained segment (the
// caller catches up from the newest checkpoint, then resumes). Safe for
// concurrent use with Append and Checkpoint.
func (w *WAL) ReadFrom(from uint64, max int) ([][]byte, error) {
	if max <= 0 {
		max = 1024
	}
	if from == 0 {
		from = 1
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil, ErrClosed
	}
	segs := append([]segMeta(nil), w.segments...)
	next := w.nextLSN
	w.mu.Unlock()
	if from >= next {
		return nil, nil
	}
	if len(segs) == 0 || from < segs[0].first {
		return nil, ErrCompacted
	}
	var records [][]byte
	for _, seg := range segs {
		if len(records) >= max {
			break
		}
		err := seg.readCommitted(from, max-len(records), func(_ uint64, payload []byte) error {
			records = append(records, payload)
			return nil
		})
		if errors.Is(err, os.ErrNotExist) {
			// A checkpoint pruned this segment between the metadata
			// snapshot and the read; everything it held is covered.
			return nil, ErrCompacted
		}
		if err != nil {
			return nil, err
		}
	}
	return records, nil
}

// WaitFor blocks until a record with the given LSN has been committed,
// the timeout elapses, or the log closes. It reports whether the LSN is
// committed — the long-poll primitive a replication source uses to turn
// follower pulls into low-latency tail following instead of fixed-period
// polling.
func (w *WAL) WaitFor(lsn uint64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		w.mu.Lock()
		if w.nextLSN > lsn {
			w.mu.Unlock()
			return true
		}
		if w.closed {
			w.mu.Unlock()
			return false
		}
		ch := w.commitCh
		w.mu.Unlock()
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			w.mu.Lock()
			ok := w.nextLSN > lsn
			w.mu.Unlock()
			return ok
		}
	}
}

// InstallCheckpoint durably installs an externally supplied snapshot
// covering every record with LSN <= upTo — the follower-bootstrap
// counterpart of Checkpoint. Unlike Checkpoint, the log's own records
// need not reach upTo: after a successful install the log skips forward
// so the next append is assigned upTo+1, which is how a joining follower
// adopts the leader's LSN space from a shipped checkpoint. It refuses to
// discard committed records (last committed LSN must be <= upTo) and to
// move behind an existing checkpoint.
//
// The caller must not run appends concurrently with InstallCheckpoint; a
// follower only installs while its replication loop is the sole writer.
func (w *WAL) InstallCheckpoint(upTo uint64, write func(io.Writer) error) error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if last := w.nextLSN - 1; last > upTo {
		w.mu.Unlock()
		return fmt.Errorf("wal: installing checkpoint at LSN %d would discard committed records through %d", upTo, last)
	}
	if upTo < w.ckptLSN {
		prev := w.ckptLSN
		w.mu.Unlock()
		return fmt.Errorf("wal: checkpoint at LSN %d behind existing checkpoint %d", upTo, prev)
	}
	w.mu.Unlock()

	final, err := w.writeCheckpointFile(upTo, write)
	if err != nil {
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	oldPath := w.ckptPath
	w.ckptLSN, w.ckptPath = upTo, final
	// Every existing segment is wholly covered (the no-discard check
	// above); drop them all, skip the LSN space forward, start fresh.
	if w.seg != nil {
		w.seg.Close()
		w.seg = nil
	}
	for _, seg := range w.segments {
		if err := os.Remove(seg.path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	w.segments = nil
	w.nextLSN = upTo + 1
	if err := w.newSegmentLocked(); err != nil {
		return err
	}
	if oldPath != "" && oldPath != final {
		os.Remove(oldPath)
	}
	if err := w.syncDir(); err != nil {
		return err
	}
	if m := w.opts.Metrics; m != nil {
		m.WALCheckpoints.Add(1)
	}
	return nil
}
