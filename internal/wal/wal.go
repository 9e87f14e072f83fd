// Package wal is the server's durability layer: an append-only write-ahead
// log of opaque records in rotating segment files. A mutating operation is
// appended (and fsynced) here before it is applied to the in-memory match
// store, so an acknowledged upload survives a crash.
//
// # Record and segment format
//
// A segment file starts with a 16-byte header: the magic "SMATCHW1" and the
// big-endian LSN of the segment's first record. Records follow back to
// back, each framed as
//
//	u32 payload length | u8 version | payload | u32 CRC32C(version ‖ payload)
//
// Records carry no per-record LSN: record i of a segment has LSN
// first + i, so LSNs are dense and segment names (wal-<firstLSN>.seg)
// totally order the log. Everything is big-endian; the CRC is Castagnoli
// (the polynomial with hardware support on amd64/arm64).
//
// # Group commit
//
// Concurrent appends are batched into one fsync. Each call — Append is
// AppendBatch of one record — hands its records to a committer goroutine
// as one pending and blocks on one result channel; the committer drains
// the queue (up to maxBatch records), writes every drained call's records
// back to back with a single write call, syncs once, and then releases
// the whole batch. A call is never split or interleaved with another, so
// its LSNs are contiguous. Under load the fsync cost is amortized over the
// batch; at parallelism 1 the path degenerates to one fsync per call,
// which is the floor any durable log pays.
//
// # Recovery
//
// Open scans every segment, verifying each frame's CRC. A torn or corrupt
// tail in the newest segment — the only kind of damage a crash can cause,
// since earlier segments were fsynced before rotation — is truncated away;
// damage in an older segment aborts Open rather than silently dropping
// acknowledged records. Replay then yields every record after the newest
// checkpoint, in LSN order.
//
// # Checkpoints
//
// Checkpoint writes a caller-provided state snapshot (the server writes a
// match.Snapshot) crash-atomically (temp file, fsync, rename, directory
// fsync) as checkpoint-<lsn>.ckpt, then deletes segments wholly covered by
// it and older checkpoint files. Recovery is: restore the newest
// checkpoint, replay the tail segments.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"smatch/internal/metrics"
)

const (
	segMagic   = "SMATCHW1"
	segSuffix  = ".seg"
	segPrefix  = "wal-"
	ckptPrefix = "checkpoint-"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"

	// segHeaderLen is the segment header: magic plus first-record LSN.
	segHeaderLen = len(segMagic) + 8

	// recordVersion is the only frame version this package writes or
	// accepts; bumping it is how a future format change stays detectable.
	recordVersion = 1

	// recOverhead is the framing around a payload: u32 length, u8 version,
	// u32 CRC.
	recOverhead = 4 + 1 + 4

	// MaxRecordSize bounds one record's payload — wire.MaxFrameSize plus
	// headroom, and the backstop that stops a corrupt length prefix from
	// allocating gigabytes during recovery.
	MaxRecordSize = 32 << 20

	// DefaultSegmentSize is the rotation threshold when Options leaves
	// SegmentSize zero.
	DefaultSegmentSize = 64 << 20

	// maxBatch caps how many records one group commit drains, and sizes
	// the queue of pending calls.
	maxBatch = 4096
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Package errors.
var (
	ErrClosed         = errors.New("wal: closed")
	ErrCorrupt        = errors.New("wal: corrupt segment")
	ErrRecordTooLarge = errors.New("wal: record exceeds MaxRecordSize")
)

// Options configures Open.
type Options struct {
	// Dir is the log directory; created if absent. Required.
	Dir string
	// SegmentSize is the rotation threshold in bytes; a segment may
	// overshoot by at most one commit batch. Zero selects
	// DefaultSegmentSize.
	SegmentSize int64
	// NoSync skips every fsync. Tests and benchmarks only: a NoSync log
	// is not durable across power loss, exactly the failure mode this
	// package exists to close.
	NoSync bool
	// Metrics receives append/fsync counters and histograms; nil disables
	// recording.
	Metrics *metrics.Registry
}

// segMeta describes one on-disk segment.
type segMeta struct {
	path  string
	first uint64 // LSN of the segment's first record
	count uint64 // records in the segment (as of the last scan/commit)
}

func (m segMeta) last() uint64 { return m.first + m.count - 1 } // valid only when count > 0

// pending is one in-flight Append or AppendBatch call. The committer
// writes its records back to back inside one group commit, so their LSNs
// are contiguous, and answers once on ch.
type pending struct {
	records [][]byte
	ch      chan appendResult
}

type appendResult struct {
	first uint64 // LSN of the call's first record
	err   error
}

// WAL is an open write-ahead log. Append, Checkpoint and LastLSN are safe
// for concurrent use; Replay is meant for the single-threaded recovery
// phase right after Open.
type WAL struct {
	opts Options
	dir  *os.File // directory handle, for fsyncing renames and deletes

	mu       sync.Mutex // guards everything below
	seg      *os.File   // active segment, positioned at its end
	segSize  int64
	segments []segMeta // ascending first LSN; last entry is the active segment
	nextLSN  uint64
	ckptLSN  uint64 // highest LSN covered by the newest checkpoint; 0 = none
	ckptPath string // "" when no checkpoint exists
	failed   error  // latched after a write/sync error mid-record
	closed   bool
	// commitCh is closed (and replaced) after every successful commit and
	// on Close — the broadcast WaitFor's tail-followers park on.
	commitCh chan struct{}

	// replaySegs freezes the recovered segment set at Open time so Replay
	// is unaffected by concurrent appends.
	replaySegs []segMeta

	ckptMu sync.Mutex // serializes Checkpoint callers

	// closeMu makes Close a barrier against in-flight enqueues: appenders
	// hold the read side across the closed-check and the channel send, so
	// once Close holds the write side no new record can slip into the
	// queue behind the committer's final drain.
	closeMu  sync.RWMutex
	closing  bool
	appendCh chan *pending
	closeCh  chan struct{}
	done     chan struct{}
}

// Open opens (creating if necessary) the log in opts.Dir, truncating any
// torn tail left by a crash, and readies it for Replay and Append.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	dir, err := os.Open(opts.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	w := &WAL{
		opts:     opts,
		dir:      dir,
		appendCh: make(chan *pending, maxBatch),
		closeCh:  make(chan struct{}),
		done:     make(chan struct{}),
		commitCh: make(chan struct{}),
	}
	if err := w.recover(); err != nil {
		dir.Close()
		return nil, err
	}
	go w.committer()
	return w, nil
}

// recover scans the directory: find the newest checkpoint, validate every
// segment (truncating a torn tail in the newest one), prune files a prior
// checkpoint already covers, and open or create the active segment.
func (w *WAL) recover() error {
	names, err := w.dir.Readdirnames(-1)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	sort.Strings(names)

	var segs []segMeta
	for _, name := range names {
		full := filepath.Join(w.opts.Dir, name)
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			// A crash mid-checkpoint or mid-rotation left a temp file the
			// rename never published; it was never part of the log.
			os.Remove(full)
		case strings.HasPrefix(name, ckptPrefix) && strings.HasSuffix(name, ckptSuffix):
			hexLSN := strings.TrimSuffix(strings.TrimPrefix(name, ckptPrefix), ckptSuffix)
			lsn, err := strconv.ParseUint(hexLSN, 16, 64)
			if err != nil {
				continue // foreign file; leave it alone
			}
			if lsn >= w.ckptLSN {
				w.ckptLSN, w.ckptPath = lsn, full
			}
		case strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix):
			segs = append(segs, segMeta{path: full})
		}
	}

	// Scan segments, oldest first (names sort by first LSN).
	for i := range segs {
		last := i == len(segs)-1
		first, count, validEnd, hdrOK, err := scanSegment(segs[i].path)
		if err != nil {
			return err
		}
		if !hdrOK {
			if !last {
				return fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, segs[i].path)
			}
			// A crash during rotation can leave a newest segment without a
			// complete header; it holds no committed records.
			if err := os.Remove(segs[i].path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			segs = segs[:i]
			break
		}
		segs[i].first, segs[i].count = first, count
		if fi, err := os.Stat(segs[i].path); err != nil {
			return fmt.Errorf("wal: %w", err)
		} else if validEnd < fi.Size() {
			if !last {
				return fmt.Errorf("%w: %s: invalid record at offset %d", ErrCorrupt, segs[i].path, validEnd)
			}
			if err := os.Truncate(segs[i].path, validEnd); err != nil {
				return fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
	}
	// LSNs must be dense across segments.
	for i := 1; i < len(segs); i++ {
		if segs[i].first != segs[i-1].first+segs[i-1].count {
			return fmt.Errorf("%w: gap between %s and %s", ErrCorrupt, segs[i-1].path, segs[i].path)
		}
	}
	// Drop segments a checkpoint already wholly covers (a crash between
	// checkpoint rename and segment deletion leaves them behind).
	for len(segs) > 0 && segs[0].count > 0 && segs[0].last() <= w.ckptLSN {
		if err := os.Remove(segs[0].path); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		segs = segs[1:]
	}

	if len(segs) > 0 {
		lastSeg := segs[len(segs)-1]
		w.nextLSN = lastSeg.first + lastSeg.count
	} else {
		w.nextLSN = w.ckptLSN + 1
	}
	w.segments = segs
	w.replaySegs = append([]segMeta(nil), segs...)

	if len(segs) == 0 {
		return w.newSegmentLocked()
	}
	active := segs[len(segs)-1]
	f, err := os.OpenFile(active.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	w.seg, w.segSize = f, size
	return nil
}

// newSegmentLocked creates and syncs a fresh active segment whose first
// record will be nextLSN. Caller holds mu (or is Open, pre-concurrency).
func (w *WAL) newSegmentLocked() error {
	path := filepath.Join(w.opts.Dir, fmt.Sprintf("%s%016x%s", segPrefix, w.nextLSN, segSuffix))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := make([]byte, 0, segHeaderLen)
	hdr = append(hdr, segMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, w.nextLSN)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.syncFile(f); err != nil {
		f.Close()
		return err
	}
	if err := w.syncDir(); err != nil {
		f.Close()
		return err
	}
	w.seg, w.segSize = f, int64(segHeaderLen)
	w.segments = append(w.segments, segMeta{path: path, first: w.nextLSN})
	return nil
}

func (w *WAL) syncFile(f *os.File) error {
	if w.opts.NoSync {
		return nil
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	return nil
}

func (w *WAL) syncDir() error {
	if w.opts.NoSync {
		return nil
	}
	if err := w.dir.Sync(); err != nil {
		return fmt.Errorf("wal: fsync dir: %w", err)
	}
	return nil
}

// appendRecord frames payload onto buf.
func appendRecord(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	start := len(buf)
	buf = append(buf, recordVersion)
	buf = append(buf, payload...)
	crc := crc32.Checksum(buf[start:], castagnoli)
	return binary.BigEndian.AppendUint32(buf, crc)
}

// parseRecord decodes one framed record from the front of b, returning the
// payload and the bytes consumed. Any truncation, version mismatch,
// oversized length or CRC failure is an error; the caller treats it as the
// torn tail.
func parseRecord(b []byte) (payload []byte, n int, err error) {
	if len(b) < recOverhead {
		return nil, 0, fmt.Errorf("%w: short frame", ErrCorrupt)
	}
	plen := binary.BigEndian.Uint32(b)
	if plen > MaxRecordSize {
		return nil, 0, fmt.Errorf("%w: record length %d exceeds %d", ErrCorrupt, plen, MaxRecordSize)
	}
	total := recOverhead + int(plen)
	if len(b) < total {
		return nil, 0, fmt.Errorf("%w: truncated record", ErrCorrupt)
	}
	if b[4] != recordVersion {
		return nil, 0, fmt.Errorf("%w: record version %d", ErrCorrupt, b[4])
	}
	body := b[4 : 5+plen] // version byte + payload
	want := binary.BigEndian.Uint32(b[5+plen:])
	if crc32.Checksum(body, castagnoli) != want {
		return nil, 0, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	return body[1:], total, nil
}

// scanSegment validates a segment file: header, then every record frame in
// order. It returns the first LSN, the number of valid records, and the
// byte offset just past the last valid record (validEnd < file size means
// a torn or corrupt tail). hdrOK is false when the file is too short or
// mis-magicked to be a segment at all. err reports I/O failures only.
func scanSegment(path string) (first, count uint64, validEnd int64, hdrOK bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, false, fmt.Errorf("wal: %w", err)
	}
	if len(data) < segHeaderLen || string(data[:len(segMagic)]) != segMagic {
		return 0, 0, 0, false, nil
	}
	first = binary.BigEndian.Uint64(data[len(segMagic):segHeaderLen])
	off := segHeaderLen
	for off < len(data) {
		_, n, perr := parseRecord(data[off:])
		if perr != nil {
			break
		}
		off += n
		count++
	}
	return first, count, int64(off), true, nil
}

// Append writes one record, returning its LSN once the record is durable
// (written and fsynced, batched with concurrent appenders). It is
// AppendBatch of one record. An error means the record must be treated as
// not logged: the caller must not apply the operation it encodes.
func (w *WAL) Append(data []byte) (uint64, error) {
	return w.enqueue([][]byte{data})
}

// AppendBatch writes several records durably, returning their LSNs once
// all are committed. The call is one pending: its records land back to
// back in one group commit, so the LSNs are contiguous (first, first+1,
// …) and the batch costs one fsync even from a single caller. An error
// means the records must be treated as not logged: the caller must apply
// none of the operations they encode.
func (w *WAL) AppendBatch(records [][]byte) ([]uint64, error) {
	if len(records) == 0 {
		return nil, nil
	}
	first, err := w.enqueue(records)
	if err != nil {
		return nil, err
	}
	lsns := make([]uint64, len(records))
	for i := range lsns {
		lsns[i] = first + uint64(i)
	}
	return lsns, nil
}

// enqueue hands one call's records to the committer as a single pending
// and waits for the LSN of the first.
func (w *WAL) enqueue(records [][]byte) (uint64, error) {
	for _, data := range records {
		if len(data) > MaxRecordSize {
			return 0, ErrRecordTooLarge
		}
	}
	p := &pending{records: records, ch: make(chan appendResult, 1)}
	w.closeMu.RLock()
	if w.closing {
		w.closeMu.RUnlock()
		return 0, ErrClosed
	}
	w.appendCh <- p // committer is running, so a full queue drains
	w.closeMu.RUnlock()
	r := <-p.ch
	return r.first, r.err
}

// committer is the group-commit loop: block for one pending call, drain
// whatever else is queued, commit the whole batch with a single fsync.
func (w *WAL) committer() {
	defer close(w.done)
	for {
		select {
		case p := <-w.appendCh:
			w.commitBatch(p)
		case <-w.closeCh:
			// Commit anything that won the race into the queue before
			// close; appenders that lost it got ErrClosed.
			for {
				select {
				case p := <-w.appendCh:
					w.commitBatch(p)
				default:
					return
				}
			}
		}
	}
}

// commitBatch drains the queue behind first, up to maxBatch records, and
// commits the batch. A call is never split, so one larger than maxBatch
// commits alone.
func (w *WAL) commitBatch(first *pending) {
	batch := make([]*pending, 1, 16)
	batch[0] = first
	n := len(first.records)
drain:
	for n < maxBatch {
		select {
		case p := <-w.appendCh:
			batch = append(batch, p)
			n += len(p.records)
		default:
			break drain
		}
	}
	w.mu.Lock()
	results := w.commitLocked(batch)
	w.mu.Unlock()
	for i, p := range batch {
		p.ch <- results[i]
	}
}

// commitLocked writes and syncs a batch of calls under mu, assigning LSNs
// in call order, each call's records back to back. All records in a batch
// share one write and one fsync; they land in the same segment (rotation
// is checked once, up front, so a segment may overshoot SegmentSize by one
// batch).
func (w *WAL) commitLocked(batch []*pending) []appendResult {
	results := make([]appendResult, len(batch))
	fail := func(err error) []appendResult {
		for i := range results {
			results[i] = appendResult{err: err}
		}
		return results
	}
	if w.failed != nil {
		return fail(w.failed)
	}
	if w.segSize >= w.opts.SegmentSize {
		if err := w.rotateLocked(); err != nil {
			return fail(err)
		}
	}
	size := 0
	for _, p := range batch {
		for _, data := range p.records {
			size += recOverhead + len(data)
		}
	}
	buf := make([]byte, 0, size)
	next := w.nextLSN
	for i, p := range batch {
		results[i] = appendResult{first: next}
		for _, data := range p.records {
			buf = appendRecord(buf, data)
		}
		next += uint64(len(p.records))
	}
	n := next - w.nextLSN
	if _, err := w.seg.Write(buf); err != nil {
		// The segment tail is now indeterminate; recovery's CRC scan will
		// truncate it. Refuse further appends from this handle.
		w.failed = fmt.Errorf("wal: write: %w", err)
		return fail(w.failed)
	}
	start := time.Now()
	if err := w.syncFile(w.seg); err != nil {
		w.failed = err
		return fail(w.failed)
	}
	w.segSize += int64(len(buf))
	w.nextLSN = next
	w.segments[len(w.segments)-1].count += n
	// Broadcast the commit to tail-followers parked in WaitFor.
	close(w.commitCh)
	w.commitCh = make(chan struct{})
	if m := w.opts.Metrics; m != nil {
		m.WALAppends.Add(n)
		m.WALAppendedBytes.Add(uint64(len(buf)))
		m.WALFsyncs.Add(1)
		m.WALFsyncLatency.Observe(time.Since(start))
		m.WALBatchSize.ObserveValue(int64(n))
	}
	return results
}

// rotateLocked seals the active segment and starts a new one.
func (w *WAL) rotateLocked() error {
	if err := w.syncFile(w.seg); err != nil {
		return err
	}
	if err := w.seg.Close(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := w.newSegmentLocked(); err != nil {
		return err
	}
	if m := w.opts.Metrics; m != nil {
		m.WALRotations.Add(1)
	}
	return nil
}

// LastLSN returns the LSN of the most recently committed record (0 when
// the log has never held one).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextLSN - 1
}

// CheckpointLSN returns the highest LSN the newest checkpoint covers (0
// when no checkpoint exists).
func (w *WAL) CheckpointLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ckptLSN
}

// LatestCheckpoint opens the newest checkpoint for reading. ok is false
// when no checkpoint exists.
func (w *WAL) LatestCheckpoint() (rc io.ReadCloser, lsn uint64, ok bool, err error) {
	w.mu.Lock()
	path, lsn := w.ckptPath, w.ckptLSN
	w.mu.Unlock()
	if path == "" {
		return nil, 0, false, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("wal: %w", err)
	}
	return f, lsn, true, nil
}

// Replay calls fn for every record after the newest checkpoint, in LSN
// order, using the segment set recovered at Open (appends made since are
// not replayed). A non-nil error from fn aborts the replay.
func (w *WAL) Replay(fn func(lsn uint64, data []byte) error) error {
	w.mu.Lock()
	segs := w.replaySegs
	ckpt := w.ckptLSN
	w.mu.Unlock()
	for _, seg := range segs {
		if err := seg.readCommitted(ckpt+1, math.MaxInt, fn); err != nil {
			return err
		}
	}
	return nil
}

// readCommitted calls fn, in LSN order, for at most limit of the
// segment's first count records whose LSN is at least from. Those records
// are committed, so they always parse: damage among them is corruption,
// not a torn tail. A failed read of the file is returned wrapped; a
// non-nil error from fn stops the read and is returned as is.
func (seg segMeta) readCommitted(from uint64, limit int, fn func(lsn uint64, payload []byte) error) error {
	if seg.count == 0 || seg.last() < from {
		return nil
	}
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	off := segHeaderLen
	for i := uint64(0); i < seg.count && limit > 0; i++ {
		payload, n, err := parseRecord(data[off:])
		if err != nil {
			return fmt.Errorf("wal: %s record %d: %w", seg.path, i, err)
		}
		off += n
		if lsn := seg.first + i; lsn >= from {
			if err := fn(lsn, payload); err != nil {
				return err
			}
			limit--
		}
	}
	return nil
}

// Checkpoint durably writes a state snapshot covering every record with
// LSN <= upTo (the caller guarantees the snapshot reflects at least that
// prefix), then deletes segments and older checkpoints the new one makes
// redundant. upTo == 0 (empty log) is valid and records an empty-state
// checkpoint.
func (w *WAL) Checkpoint(upTo uint64, write func(io.Writer) error) error {
	w.ckptMu.Lock()
	defer w.ckptMu.Unlock()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	if upTo >= w.nextLSN {
		last := w.nextLSN - 1
		w.mu.Unlock()
		return fmt.Errorf("wal: checkpoint at LSN %d beyond last committed %d", upTo, last)
	}
	if upTo < w.ckptLSN {
		prev := w.ckptLSN
		w.mu.Unlock()
		return fmt.Errorf("wal: checkpoint at LSN %d behind existing checkpoint %d", upTo, prev)
	}
	w.mu.Unlock()

	// Write the snapshot outside mu: it can be large, and appends must not
	// stall behind it.
	final, err := w.writeCheckpointFile(upTo, write)
	if err != nil {
		return err
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	oldPath := w.ckptPath
	w.ckptLSN, w.ckptPath = upTo, final
	// Seal the active segment if the checkpoint covers all of it, so it
	// becomes deletable; then drop every fully covered sealed segment.
	active := &w.segments[len(w.segments)-1]
	if active.count > 0 && active.last() <= upTo {
		if err := w.rotateLocked(); err != nil {
			return err
		}
	}
	kept := w.segments[:0]
	for i, seg := range w.segments {
		sealed := i < len(w.segments)-1
		if sealed && (seg.count == 0 || seg.last() <= upTo) {
			if err := os.Remove(seg.path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			continue
		}
		kept = append(kept, seg)
	}
	w.segments = append([]segMeta(nil), kept...)
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

// writeCheckpointFile publishes checkpoint-<upTo>.ckpt crash-atomically:
// temp file, fsync, rename, directory fsync. Shared by Checkpoint and
// InstallCheckpoint.
func (w *WAL) writeCheckpointFile(upTo uint64, write func(io.Writer) error) (string, error) {
	final := filepath.Join(w.opts.Dir, fmt.Sprintf("%s%016x%s", ckptPrefix, upTo, ckptSuffix))
	tmp := final + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return "", fmt.Errorf("wal: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", fmt.Errorf("wal: writing checkpoint: %w", err)
	}
	if err := w.syncFile(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("wal: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("wal: %w", err)
	}
	if err := w.syncDir(); err != nil {
		return "", err
	}
	return final, nil
}

// Close flushes pending appends, syncs and closes the log. Appends issued
// after Close fail with ErrClosed.
func (w *WAL) Close() error {
	w.closeMu.Lock()
	if w.closing {
		w.closeMu.Unlock()
		return nil
	}
	w.closing = true
	w.closeMu.Unlock()
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	close(w.closeCh)
	<-w.done // committer has drained and exited
	w.mu.Lock()
	defer w.mu.Unlock()
	// Wake tail-followers so WaitFor observes the close promptly.
	close(w.commitCh)
	w.commitCh = make(chan struct{})
	var firstErr error
	if w.seg != nil {
		if err := w.syncFile(w.seg); err != nil {
			firstErr = err
		}
		if err := w.seg.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: %w", err)
		}
	}
	if err := w.dir.Close(); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("wal: %w", err)
	}
	return firstErr
}
