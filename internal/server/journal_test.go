// Crash-recovery tests for the journal: the durability invariant is that
// after a crash at ANY byte offset in the log, recovery restores exactly
// the acknowledged prefix of operations — no acknowledged mutation is
// lost, no torn record is applied. The tests prove it by cutting a real
// WAL at every record boundary (and inside records) and requiring the
// recovered store's snapshot to byte-match a reference store replayed to
// the same point.
package server

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"testing"
	"time"

	"smatch/internal/chain"
	"smatch/internal/client"
	"smatch/internal/match"
	"smatch/internal/profile"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

// journalOp is one workload step: an upload (remove == false) or a remove.
type journalOp struct {
	remove bool
	id     profile.ID
	bucket string
	sum    int64
}

// entry is the upload's store entry.
func (op journalOp) entry() match.Entry {
	return match.Entry{
		ID:      op.id,
		KeyHash: []byte(op.bucket),
		Chain:   &chain.Chain{Cts: []*big.Int{big.NewInt(op.sum)}, CtBits: 48},
		Auth:    []byte(fmt.Sprintf("auth-%d-%d", op.id, op.sum)),
	}
}

func (op journalOp) uploadReq() *wire.UploadReq {
	req := wire.UploadReqOf(op.entry())
	return &req
}

// apply performs the op on a bare store (the reference path).
func (op journalOp) apply(t *testing.T, s *match.Server) {
	t.Helper()
	if op.remove {
		if err := s.Remove(op.id); err != nil {
			t.Fatalf("reference remove %d: %v", op.id, err)
		}
		return
	}
	if err := s.Upload(op.entry()); err != nil {
		t.Fatal(err)
	}
}

// journalAndApply performs the op the way the serving path does:
// journal first, then apply to the live store.
func (op journalOp) journalAndApply(t *testing.T, j *Journal, s *match.Server) {
	t.Helper()
	if op.remove {
		if err := j.AppendRemove(op.id); err != nil {
			t.Fatal(err)
		}
	} else if err := j.AppendUploadBatch([]*wire.UploadReq{op.uploadReq()}); err != nil {
		t.Fatal(err)
	}
	op.apply(t, s)
}

// mixedWorkload exercises fresh uploads, bucket-moving re-uploads,
// removes, and re-uploads after removal.
func mixedWorkload() []journalOp {
	return []journalOp{
		{id: 1, bucket: "alpha", sum: 10},
		{id: 2, bucket: "alpha", sum: 20},
		{id: 3, bucket: "beta", sum: 5},
		{id: 1, bucket: "beta", sum: 7}, // re-upload moves user 1 across buckets
		{remove: true, id: 2},
		{id: 4, bucket: "alpha", sum: 13},
		{id: 2, bucket: "gamma", sum: 99}, // re-add after remove
		{remove: true, id: 3},
		{id: 5, bucket: "beta", sum: 7},  // order-sum tie with user 1
		{id: 4, bucket: "gamma", sum: 1}, // another cross-bucket move
		{remove: true, id: 1},
		{id: 6, bucket: "alpha", sum: 300},
	}
}

func snapshotBytes(t *testing.T, s *match.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// copyDirTruncated clones a WAL directory, truncating file `name` to n
// bytes — a byte-exact crash image.
func copyDirTruncated(t *testing.T, src, name string, n int64) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() == name && int64(len(data)) > n {
			data = data[:n]
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// activeSegment returns the newest (highest-named) segment in dir.
func activeSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (err=%v)", dir, err)
	}
	return segs[len(segs)-1]
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// recoverStore opens the journal in dir and returns the recovered store.
func recoverStore(t *testing.T, dir string) *match.Server {
	t.Helper()
	j, store, _, err := OpenJournal(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	return store
}

func TestCrashRecoveryEquivalenceAtEveryCut(t *testing.T) {
	ops := mixedWorkload()
	master := t.TempDir()
	j, store, recovered, err := OpenJournal(wal.Options{Dir: master, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if recovered {
		t.Fatal("fresh dir reported recovered state")
	}
	// Journal the workload, recording the segment size after every op:
	// those are the exact record boundaries a crash can respect.
	seg := activeSegment(t, master)
	boundaries := []int64{fileSize(t, seg)} // boundary[i] = offset after i ops
	for _, op := range ops {
		op.journalAndApply(t, j, store)
		boundaries = append(boundaries, fileSize(t, seg))
	}
	j.Close()

	// References: store state after the first k ops, for every k.
	refs := make([][]byte, len(ops)+1)
	ref := match.NewServer()
	refs[0] = snapshotBytes(t, ref)
	for k, op := range ops {
		op.apply(t, ref)
		refs[k+1] = snapshotBytes(t, ref)
	}
	if !bytes.Equal(refs[len(ops)], snapshotBytes(t, store)) {
		t.Fatal("journaled live store diverged from reference")
	}

	segName := filepath.Base(seg)
	for k := 0; k <= len(ops); k++ {
		// Crash exactly at a record boundary: k ops acknowledged.
		dir := copyDirTruncated(t, master, segName, boundaries[k])
		if got := snapshotBytes(t, recoverStore(t, dir)); !bytes.Equal(got, refs[k]) {
			t.Errorf("cut at boundary %d: recovered store != reference after %d ops", k, k)
		}
		// Crash mid-record: the torn record k+1 must NOT be applied.
		if k < len(ops) {
			for _, delta := range []int64{1, 4, boundaries[k+1] - boundaries[k] - 1} {
				dir := copyDirTruncated(t, master, segName, boundaries[k]+delta)
				if got := snapshotBytes(t, recoverStore(t, dir)); !bytes.Equal(got, refs[k]) {
					t.Errorf("cut %d bytes into record %d: torn record applied or prefix lost", delta, k+1)
				}
			}
		}
	}
}

func TestCrashRecoveryWithCheckpointAndTail(t *testing.T) {
	ops := mixedWorkload()
	split := 7 // checkpoint after this many ops
	master := t.TempDir()
	j, store, _, err := OpenJournal(wal.Options{Dir: master, NoSync: true, SegmentSize: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:split] {
		op.journalAndApply(t, j, store)
	}
	if err := j.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	// The checkpoint rotated onto a fresh tail segment; boundary-track it.
	tail := activeSegment(t, master)
	boundaries := []int64{fileSize(t, tail)}
	for _, op := range ops[split:] {
		op.journalAndApply(t, j, store)
		boundaries = append(boundaries, fileSize(t, tail))
	}
	j.Close()

	refs := make([][]byte, len(ops)+1)
	ref := match.NewServer()
	refs[0] = snapshotBytes(t, ref)
	for k, op := range ops {
		op.apply(t, ref)
		refs[k+1] = snapshotBytes(t, ref)
	}

	tailName := filepath.Base(tail)
	for k := split; k <= len(ops); k++ {
		dir := copyDirTruncated(t, master, tailName, boundaries[k-split])
		if got := snapshotBytes(t, recoverStore(t, dir)); !bytes.Equal(got, refs[k]) {
			t.Errorf("checkpoint + tail cut after op %d: recovery mismatch", k)
		}
		if k < len(ops) {
			dir := copyDirTruncated(t, master, tailName, boundaries[k-split]+2)
			if got := snapshotBytes(t, recoverStore(t, dir)); !bytes.Equal(got, refs[k]) {
				t.Errorf("checkpoint + torn tail record %d: recovery mismatch", k+1)
			}
		}
	}
}

func TestJournalRecoveredReportsPriorState(t *testing.T) {
	// recovered is false exactly when the directory holds neither a
	// checkpoint nor a committed record; reopening an empty log keeps it so.
	dir := t.TempDir()
	open := func() (*Journal, *match.Server, bool) {
		t.Helper()
		j, store, recovered, err := OpenJournal(wal.Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		return j, store, recovered
	}
	j, store, recovered := open()
	if recovered {
		t.Fatal("fresh dir reported recovered state")
	}
	j.Close()
	j, store, recovered = open()
	if recovered {
		t.Fatal("reopened empty dir reported recovered state")
	}
	journalOp{id: 1, bucket: "alpha", sum: 10}.journalAndApply(t, j, store)
	j.Close()
	j, store, recovered = open()
	if !recovered {
		t.Fatal("dir with one record did not report recovered state")
	}
	// A checkpoint prunes the record's segment; the checkpoint alone is
	// still prior state.
	if err := j.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j, _, recovered = open()
	defer j.Close()
	if !recovered {
		t.Fatal("dir with only a checkpoint did not report recovered state")
	}
}

func TestJournalRecoveryIsIdempotentAcrossRestarts(t *testing.T) {
	// Recover, append more, recover again: double-replay of the overlap
	// (checkpoint content + tail records) must not duplicate or lose
	// anything.
	dir := t.TempDir()
	ops := mixedWorkload()
	j, store, _, err := OpenJournal(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:6] {
		op.journalAndApply(t, j, store)
	}
	if err := j.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[6:9] {
		op.journalAndApply(t, j, store)
	}
	j.Close()

	j2, store2, recovered, err := OpenJournal(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if !recovered {
		t.Fatal("second open did not report recovery")
	}
	for _, op := range ops[9:] {
		op.journalAndApply(t, j2, store2)
	}
	j2.Close()

	ref := match.NewServer()
	for _, op := range ops {
		op.apply(t, ref)
	}
	if !bytes.Equal(snapshotBytes(t, recoverStore(t, dir)), snapshotBytes(t, ref)) {
		t.Fatal("state after two recover/append generations diverged from reference")
	}
}

func TestServerJournalsOverNetwork(t *testing.T) {
	// End to end: a TLS server with a journal acknowledges uploads and
	// removes; after an abrupt shutdown, a fresh recovery holds exactly
	// the acknowledged state.
	dir := t.TempDir()
	j, store, _, err := OpenJournal(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 5 * time.Second, Store: store, Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	conn, err := client.Dial(addr.String(), client.Options{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	mkEntry := func(id profile.ID, bucket string, sum int64) match.Entry {
		return match.Entry{
			ID:      id,
			KeyHash: []byte(bucket),
			Chain:   &chain.Chain{Cts: []*big.Int{big.NewInt(sum)}, CtBits: 48},
			Auth:    []byte{byte(id)},
		}
	}
	for i := 1; i <= 5; i++ {
		if err := conn.Upload(mkEntry(profile.ID(i), "net", int64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	if err := conn.Remove(3); err != nil {
		t.Fatal(err)
	}
	if err := conn.Remove(3); err == nil {
		t.Fatal("double remove did not error")
	}
	if got := srv.Metrics().Removes.Load(); got != 2 {
		t.Errorf("Removes counter = %d, want 2", got)
	}
	conn.Close()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	live := snapshotBytes(t, srv.Store())
	j.Close()

	recovered := recoverStore(t, dir)
	if recovered.NumUsers() != 4 {
		t.Fatalf("recovered %d users, want 4", recovered.NumUsers())
	}
	if !bytes.Equal(snapshotBytes(t, recovered), live) {
		t.Fatal("recovered store != live store at shutdown")
	}
}

func TestJournalRejectsCorruptReplay(t *testing.T) {
	// A log whose records decode but encode garbage ops must fail
	// recovery loudly, not half-apply.
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte{0xFF, 1, 2, 3}); err != nil { // unknown op code
		t.Fatal(err)
	}
	w.Close()
	if _, _, _, err := OpenJournal(wal.Options{Dir: dir, NoSync: true}); err == nil {
		t.Fatal("unknown journal op replayed without error")
	}
}

// TestShippedStreamEquivalence extends the crash-cut equivalence
// harness to log shipping: a follower that applies records pulled off
// the leader's WAL with ReadFrom — the replication transport — must
// land on the same byte-identical snapshot as crash recovery does, at
// EVERY shipped-prefix length. This is the property that lets a
// follower take over for a crashed leader: shipped prefix k == crashed
// leader recovered at acknowledged op k.
func TestShippedStreamEquivalence(t *testing.T) {
	ops := mixedWorkload()
	dir := t.TempDir()
	j, store, _, err := OpenJournal(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		op.journalAndApply(t, j, store)
	}
	leaderSnap := snapshotBytes(t, store)

	// References: store state after the first k ops.
	refs := make([][]byte, len(ops)+1)
	ref := match.NewServer()
	refs[0] = snapshotBytes(t, ref)
	for k, op := range ops {
		op.apply(t, ref)
		refs[k+1] = snapshotBytes(t, ref)
	}

	// Ship the whole log in deliberately awkward batch sizes and check
	// the follower store at every record boundary along the way.
	for _, batch := range []int{1, 3, 1000} {
		follower := match.NewServer()
		applied := 0
		cursor := uint64(1)
		for {
			recs, err := j.WAL().ReadFrom(cursor, batch)
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				break
			}
			for _, rec := range recs {
				if err := ApplyRecord(follower, rec); err != nil {
					t.Fatalf("batch=%d: applying shipped record %d: %v", batch, cursor, err)
				}
				cursor++
				applied++
				if !bytes.Equal(snapshotBytes(t, follower), refs[applied]) {
					t.Fatalf("batch=%d: follower after %d shipped records != reference", batch, applied)
				}
			}
		}
		if applied != len(ops) {
			t.Fatalf("batch=%d: shipped %d records, want %d", batch, applied, len(ops))
		}
		if !bytes.Equal(snapshotBytes(t, follower), leaderSnap) {
			t.Fatalf("batch=%d: fully shipped follower != leader", batch)
		}
	}
	j.Close()
}

// TestShippedStreamAfterCheckpoint covers the (re)join path: a follower
// that bootstraps from the leader's checkpoint snapshot and then tails
// the remaining records reaches the leader's exact state.
func TestShippedStreamAfterCheckpoint(t *testing.T) {
	ops := mixedWorkload()
	split := 7
	dir := t.TempDir()
	j, store, _, err := OpenJournal(wal.Options{Dir: dir, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[:split] {
		op.journalAndApply(t, j, store)
	}
	if err := j.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	for _, op := range ops[split:] {
		op.journalAndApply(t, j, store)
	}

	// A fresh follower asking for LSN 1 must be told the range is gone.
	if _, err := j.WAL().ReadFrom(1, 100); err != wal.ErrCompacted {
		t.Fatalf("ReadFrom(1) after checkpoint = %v, want ErrCompacted", err)
	}

	// Bootstrap: restore the checkpoint snapshot, then tail from its LSN.
	rc, ckptLSN, ok, err := j.WAL().LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	follower, err := match.Restore(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	cursor := ckptLSN + 1
	for {
		recs, err := j.WAL().ReadFrom(cursor, 4)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			break
		}
		for _, rec := range recs {
			if err := ApplyRecord(follower, rec); err != nil {
				t.Fatal(err)
			}
			cursor++
		}
	}
	if !bytes.Equal(snapshotBytes(t, follower), snapshotBytes(t, store)) {
		t.Fatal("checkpoint-bootstrapped follower != leader")
	}
	j.Close()
}
