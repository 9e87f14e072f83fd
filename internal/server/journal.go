// Journal: the server's write-ahead-log integration. Every mutating
// operation (upload, remove — including bucket-moving re-uploads, which
// are just uploads) is encoded as a WAL record and made durable BEFORE it
// is applied to the match store; only then is the client acknowledged. A
// crash therefore loses nothing that was acknowledged: recovery restores
// the newest checkpoint and replays the tail of the log.
//
// Replay is idempotent — an upload is a full-record replace and a
// replayed remove tolerates an already-absent user — which lets
// Checkpoint run concurrently with traffic: the checkpoint LSN is taken
// under a barrier (the applyMu write lock waits out every in-flight
// journal-then-apply pair), so the snapshot is guaranteed to contain at
// least the prefix up to that LSN, and any later operations it happens to
// also contain are simply re-applied on recovery.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"smatch/internal/match"
	"smatch/internal/profile"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

// WAL record op codes (first payload byte).
const (
	opUpload byte = 1
	opRemove byte = 2
)

// Journal pairs a write-ahead log with the apply-barrier checkpoints need.
type Journal struct {
	wal *wal.WAL

	// applyMu's read side spans each journal-then-apply pair; its write
	// side is the Checkpoint barrier guaranteeing every journaled record
	// up to the chosen LSN has reached the store.
	applyMu sync.RWMutex
	// release is applyMu.RUnlock bound once, so Begin allocates nothing.
	release func()
}

// OpenJournal opens (or creates) the write-ahead log in opts.Dir and
// recovers the store it protects: the newest checkpoint is restored, tail
// segments are replayed on top, and a torn tail record is truncated away.
// recovered reports whether the directory held any prior state.
func OpenJournal(opts wal.Options) (j *Journal, store *match.Server, recovered bool, err error) {
	w, err := wal.Open(opts)
	if err != nil {
		return nil, nil, false, err
	}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	store = match.NewServer()
	rc, _, ok, err := w.LatestCheckpoint()
	if err != nil {
		return nil, nil, false, err
	}
	if ok {
		store, err = match.Restore(rc)
		rc.Close()
		if err != nil {
			return nil, nil, false, fmt.Errorf("server: restoring checkpoint: %w", err)
		}
		recovered = true
	}
	err = w.Replay(func(lsn uint64, data []byte) error {
		recovered = true
		if aerr := applyOp(store, data); aerr != nil {
			return fmt.Errorf("server: replaying LSN %d: %w", lsn, aerr)
		}
		return nil
	})
	if err != nil {
		return nil, nil, false, err
	}
	return NewJournal(w), store, recovered, nil
}

// NewJournal wraps an already-open WAL (tests; production callers want
// OpenJournal, which also performs recovery).
func NewJournal(w *wal.WAL) *Journal {
	j := &Journal{wal: w}
	j.release = j.applyMu.RUnlock
	return j
}

// WAL exposes the underlying log (for checkpoint scheduling and tests).
func (j *Journal) WAL() *wal.WAL { return j.wal }

// Begin pins one journal-then-apply pair against the checkpoint barrier;
// the caller must invoke the returned release after applying the
// operation to the store. The service layer's mutation handlers call it
// around every journal-then-apply sequence.
func (j *Journal) Begin() func() {
	j.applyMu.RLock()
	return j.release
}

// AppendUploadBatch journals uploads — one, or a whole batch frame — as
// individual opUpload records (the op byte, then the request's wire
// encoding) committed through one WAL AppendBatch, so they cost one fsync
// and hold contiguous LSNs. A batch's records are the ones its entries
// would write one frame at a time, so recovery replays a batch exactly as
// it would N single uploads — no separate batch record format to version
// or test. The records are encoded back to back into one buffer sized for
// all of them. When it returns nil every record is durable.
func (j *Journal) AppendUploadBatch(reqs []*wire.UploadReq) error {
	size := 0
	for _, req := range reqs {
		size += 1 + req.EncodedLen()
	}
	buf := make([]byte, 0, size)
	records := make([][]byte, len(reqs))
	for i, req := range reqs {
		start := len(buf)
		buf = req.AppendEncode(append(buf, opUpload))
		records[i] = buf[start:len(buf):len(buf)]
	}
	if _, err := j.wal.AppendBatch(records); err != nil {
		return fmt.Errorf("server: journaling upload batch: %w", err)
	}
	return nil
}

// AppendRemove journals a remove; when it returns nil the record is
// durable.
func (j *Journal) AppendRemove(id profile.ID) error {
	var rec [5]byte
	rec[0] = opRemove
	binary.BigEndian.PutUint32(rec[1:], uint32(id))
	if _, err := j.wal.Append(rec[:]); err != nil {
		return fmt.Errorf("server: journaling remove: %w", err)
	}
	return nil
}

// Checkpoint writes a durable snapshot of the store into the WAL
// directory and prunes segments the snapshot covers. Safe to run while
// the server is serving traffic.
func (j *Journal) Checkpoint(store *match.Server) error {
	// Barrier: once the write lock is held, every record appended so far
	// has also been applied, so a snapshot taken from here on covers at
	// least the prefix up to upTo.
	j.applyMu.Lock()
	upTo := j.wal.LastLSN()
	j.applyMu.Unlock()
	return j.wal.Checkpoint(upTo, store.Snapshot)
}

// Close flushes and closes the underlying log.
func (j *Journal) Close() error { return j.wal.Close() }

// ApplyRecord applies one journal record to a store with replay
// semantics (a remove of an unknown user is a no-op). This is the
// follower's apply path in cluster replication: shipped records are the
// same bytes the journal writes, so replicating IS replaying — the
// follower exercises exactly the code crash recovery does.
func ApplyRecord(store *match.Server, rec []byte) error {
	return applyOp(store, rec)
}

// applyOp decodes one journaled operation and applies it to the store. A
// remove of an unknown user is ignored: the checkpoint the replay runs on
// top of may already reflect the removal.
func applyOp(store *match.Server, rec []byte) error {
	if len(rec) == 0 {
		return errors.New("server: empty journal record")
	}
	switch rec[0] {
	case opUpload:
		req, err := wire.DecodeUploadReq(rec[1:])
		if err != nil {
			return err
		}
		r, err := match.NewRecord(req.ID, req.KeyHash, uint(req.CtBits), int(req.NumAttrs), req.Chain, req.Auth)
		if err != nil {
			return err
		}
		store.Put(r)
		return nil
	case opRemove:
		if len(rec) != 5 {
			return fmt.Errorf("server: remove record of %d bytes", len(rec))
		}
		err := store.Remove(profile.ID(binary.BigEndian.Uint32(rec[1:])))
		if errors.Is(err, match.ErrUnknownUser) {
			return nil
		}
		return err
	default:
		return fmt.Errorf("server: unknown journal op %d", rec[0])
	}
}
