package wal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"smatch/internal/metrics"
)

// testOpen opens a WAL in dir with fast test defaults (NoSync: the page
// cache is still consistent for reads, which is all in-process crash
// simulation needs).
func testOpen(t *testing.T, dir string, mut ...func(*Options)) *WAL {
	t.Helper()
	opts := Options{Dir: dir, NoSync: true}
	for _, m := range mut {
		m(&opts)
	}
	w, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// replayAll collects every replayed record.
func replayAll(t *testing.T, w *WAL) (lsns []uint64, payloads [][]byte) {
	t.Helper()
	err := w.Replay(func(lsn uint64, data []byte) error {
		lsns = append(lsns, lsn)
		payloads = append(payloads, append([]byte(nil), data...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return lsns, payloads
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w := testOpen(t, dir)
	var want [][]byte
	for i := 0; i < 25; i++ {
		rec := []byte(fmt.Sprintf("record-%02d", i))
		want = append(want, rec)
		lsn, err := w.Append(rec)
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if got := w.LastLSN(); got != 25 {
		t.Fatalf("LastLSN = %d, want 25", got)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2 := testOpen(t, dir)
	lsns, payloads := replayAll(t, w2)
	if len(payloads) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(payloads), len(want))
	}
	for i := range want {
		if lsns[i] != uint64(i+1) || !bytes.Equal(payloads[i], want[i]) {
			t.Fatalf("record %d: lsn=%d payload=%q", i, lsns[i], payloads[i])
		}
	}
	// LSNs continue where the previous incarnation stopped.
	lsn, err := w2.Append([]byte("after-reopen"))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 26 {
		t.Fatalf("post-reopen LSN = %d, want 26", lsn)
	}
}

func TestEmptyAndZeroLengthRecords(t *testing.T) {
	dir := t.TempDir()
	w := testOpen(t, dir)
	if _, err := w.Append(nil); err != nil {
		t.Fatal(err)
	}
	w.Close()
	w2 := testOpen(t, dir)
	_, payloads := replayAll(t, w2)
	if len(payloads) != 1 || len(payloads[0]) != 0 {
		t.Fatalf("zero-length record did not round-trip: %v", payloads)
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	w := testOpen(t, t.TempDir())
	if _, err := w.Append(make([]byte, MaxRecordSize+1)); err != ErrRecordTooLarge {
		t.Fatalf("got %v, want ErrRecordTooLarge", err)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	w := testOpen(t, dir, func(o *Options) {
		o.SegmentSize = 128 // tiny: rotate every few records
		o.Metrics = reg
	})
	const n = 40
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rotating-record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %v", segs)
	}
	if reg.WALRotations.Load() == 0 {
		t.Fatal("no rotations recorded")
	}
	w2 := testOpen(t, dir)
	lsns, _ := replayAll(t, w2)
	if len(lsns) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(lsns), n)
	}
}

func TestTornTailTruncatedAtEveryCut(t *testing.T) {
	// Build a reference log, then for every byte length of the segment
	// file verify that Open recovers exactly the complete-record prefix
	// and that the log accepts appends afterwards.
	master := t.TempDir()
	w := testOpen(t, master)
	var boundaries []int64 // file offset after record i
	off := int64(segHeaderLen)
	const n = 6
	for i := 0; i < n; i++ {
		rec := []byte(fmt.Sprintf("op-%d", i))
		if _, err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		off += int64(recOverhead + len(rec))
		boundaries = append(boundaries, off)
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(master, segPrefix+"*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("want one segment, got %v", segs)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != boundaries[n-1] {
		t.Fatalf("segment is %d bytes, expected %d", len(data), boundaries[n-1])
	}

	complete := func(cut int64) int {
		k := 0
		for _, b := range boundaries {
			if b <= cut {
				k++
			}
		}
		return k
	}
	for cut := int64(0); cut <= int64(len(data)); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(segs[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(Options{Dir: dir, NoSync: true})
		if err != nil {
			t.Fatalf("cut=%d: %v", cut, err)
		}
		lsns, _ := replayAll(t, w2)
		if len(lsns) != complete(cut) {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(lsns), complete(cut))
		}
		// The log must remain appendable after truncation.
		lsn, err := w2.Append([]byte("resumed"))
		if err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if want := uint64(complete(cut)) + 1; lsn != want {
			t.Fatalf("cut=%d: resumed at LSN %d, want %d", cut, lsn, want)
		}
		w2.Close()
	}
}

func TestCorruptMiddleSegmentRefused(t *testing.T) {
	dir := t.TempDir()
	w := testOpen(t, dir, func(o *Options) { o.SegmentSize = 64 })
	for i := 0; i < 20; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("record-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) < 3 {
		t.Fatalf("need >= 3 segments, got %d", len(segs))
	}
	// Flip a payload byte in the middle segment: acknowledged data is
	// damaged, which recovery must refuse to paper over.
	data, err := os.ReadFile(segs[1])
	if err != nil {
		t.Fatal(err)
	}
	data[segHeaderLen+5] ^= 0xFF
	if err := os.WriteFile(segs[1], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir, NoSync: true}); err == nil {
		t.Fatal("Open accepted a corrupt non-final segment")
	}
}

func TestCheckpointCompaction(t *testing.T) {
	dir := t.TempDir()
	w := testOpen(t, dir, func(o *Options) { o.SegmentSize = 64 })
	state := &bytes.Buffer{} // stand-in for the store snapshot
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("pre-ckpt-%d", i))); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(state, "pre-ckpt-%d;", i)
	}
	snapshot := state.String()
	if err := w.Checkpoint(w.LastLSN(), func(out io.Writer) error {
		_, err := io.WriteString(out, snapshot)
		return err
	}); err != nil {
		t.Fatal(err)
	}
	// Covered segments are gone; only the fresh active segment remains.
	segs, _ := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if len(segs) != 1 {
		t.Fatalf("after checkpoint: %d segments left (%v), want 1", len(segs), segs)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("post-ckpt-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2 := testOpen(t, dir)
	rc, lsn, ok, err := w2.LatestCheckpoint()
	if err != nil || !ok {
		t.Fatalf("LatestCheckpoint: ok=%v err=%v", ok, err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if string(got) != snapshot {
		t.Fatalf("checkpoint content %q, want %q", got, snapshot)
	}
	if lsn != 10 {
		t.Fatalf("checkpoint LSN %d, want 10", lsn)
	}
	lsns, payloads := replayAll(t, w2)
	if len(lsns) != 3 || lsns[0] != 11 {
		t.Fatalf("replay after checkpoint: lsns=%v", lsns)
	}
	if string(payloads[0]) != "post-ckpt-0" {
		t.Fatalf("first tail record %q", payloads[0])
	}
}

func TestCheckpointValidation(t *testing.T) {
	w := testOpen(t, t.TempDir())
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	nop := func(io.Writer) error { return nil }
	if err := w.Checkpoint(5, nop); err == nil {
		t.Fatal("checkpoint beyond last LSN accepted")
	}
	if err := w.Checkpoint(1, nop); err != nil {
		t.Fatal(err)
	}
	if err := w.Checkpoint(0, nop); err == nil {
		t.Fatal("checkpoint behind existing checkpoint accepted")
	}
	// Re-checkpointing at the same LSN (no new records) is legal.
	if err := w.Checkpoint(1, nop); err != nil {
		t.Fatal(err)
	}
	ckpts, _ := filepath.Glob(filepath.Join(w.opts.Dir, ckptPrefix+"*"+ckptSuffix))
	if len(ckpts) != 1 {
		t.Fatalf("stale checkpoints not pruned: %v", ckpts)
	}
}

func TestGroupCommitConcurrentAppends(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	// Real fsyncs here: with NoSync a commit is ~instant and the
	// committer would rarely find a second waiter to batch.
	w := testOpen(t, dir, func(o *Options) { o.NoSync = false; o.Metrics = reg })
	const (
		workers = 16
		each    = 50
	)
	var wg sync.WaitGroup
	seen := make([][]uint64, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				lsn, err := w.Append([]byte(fmt.Sprintf("g%d-i%d", g, i)))
				if err != nil {
					t.Errorf("append: %v", err)
					return
				}
				seen[g] = append(seen[g], lsn)
			}
		}(g)
	}
	wg.Wait()
	// Every LSN distinct, dense 1..workers*each.
	all := map[uint64]bool{}
	for _, ls := range seen {
		for i, l := range ls {
			if all[l] {
				t.Fatalf("duplicate LSN %d", l)
			}
			all[l] = true
			// Per-goroutine appends are sequential, so LSNs ascend.
			if i > 0 && ls[i-1] >= l {
				t.Fatalf("LSNs not monotone within a goroutine: %d then %d", ls[i-1], l)
			}
		}
	}
	for l := uint64(1); l <= workers*each; l++ {
		if !all[l] {
			t.Fatalf("missing LSN %d", l)
		}
	}
	if got := reg.WALAppends.Load(); got != workers*each {
		t.Fatalf("WALAppends = %d, want %d", got, workers*each)
	}
	// One batch-size observation per fsync; never more fsyncs than
	// appends. (Whether batching actually exceeded 1 depends on fsync
	// latency — TestGroupCommitBatchesOneFsync covers that
	// deterministically.)
	if f, b := reg.WALFsyncs.Load(), reg.WALBatchSize.ValueSnapshot().Count; f != b || f > workers*each {
		t.Errorf("fsyncs=%d batch observations=%d appends=%d", f, b, workers*each)
	}
	w.Close()
	w2 := testOpen(t, dir)
	lsns, _ := replayAll(t, w2)
	if len(lsns) != workers*each {
		t.Fatalf("replayed %d records, want %d", len(lsns), workers*each)
	}
}

func TestGroupCommitBatchesOneFsync(t *testing.T) {
	// Drive the commit path directly with a pre-built batch: three calls
	// carrying five records in all must cost exactly one fsync and one
	// batch-size observation of five, each call's records back to back.
	reg := metrics.New()
	w := testOpen(t, t.TempDir(), func(o *Options) { o.Metrics = reg })
	sizes := []int{1, 3, 1}
	batch := make([]*pending, len(sizes))
	for i, n := range sizes {
		batch[i] = &pending{}
		for j := 0; j < n; j++ {
			batch[i].records = append(batch[i].records, []byte(fmt.Sprintf("batched-%d-%d", i, j)))
		}
	}
	w.mu.Lock()
	results := w.commitLocked(batch)
	w.mu.Unlock()
	for i, want := range []uint64{1, 2, 5} {
		if r := results[i]; r.err != nil || r.first != want {
			t.Fatalf("call %d: %+v, want first LSN %d", i, r, want)
		}
	}
	if f := reg.WALFsyncs.Load(); f != 1 {
		t.Fatalf("batch of 5 cost %d fsyncs, want 1", f)
	}
	if bs := reg.WALBatchSize.ValueSnapshot(); bs.Count != 1 || bs.Mean != 5 {
		t.Fatalf("batch-size histogram: %+v", bs)
	}
	if a := reg.WALAppends.Load(); a != 5 {
		t.Fatalf("WALAppends = %d", a)
	}
}

// TestAppendBatchContiguous: batches racing each other and single appends
// each come back as first..first+n−1, and replay yields every batch's
// records adjacent and in order.
func TestAppendBatchContiguous(t *testing.T) {
	dir := t.TempDir()
	w := testOpen(t, dir)
	const (
		batchers = 8
		singlers = 4
		rounds   = 10
		size     = 64
	)
	var wg sync.WaitGroup
	got := make([][][]uint64, batchers) // [batcher][round] LSNs
	for g := 0; g < batchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				records := make([][]byte, size)
				for i := range records {
					records[i] = []byte(fmt.Sprintf("b%d-r%d-i%d", g, r, i))
				}
				lsns, err := w.AppendBatch(records)
				if err != nil {
					t.Errorf("AppendBatch: %v", err)
					return
				}
				got[g] = append(got[g], lsns)
			}
		}(g)
	}
	for g := 0; g < singlers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds*size/4; i++ {
				if _, err := w.Append([]byte(fmt.Sprintf("s%d-i%d", g, i))); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for g, calls := range got {
		for r, lsns := range calls {
			for i, lsn := range lsns {
				if lsn != lsns[0]+uint64(i) {
					t.Fatalf("batcher %d round %d: LSNs %v not contiguous", g, r, lsns)
				}
			}
		}
	}
	w.Close()
	lsns, payloads := replayAll(t, testOpen(t, dir))
	at := make(map[uint64][]byte, len(lsns))
	for i, lsn := range lsns {
		at[lsn] = payloads[i]
	}
	for g, calls := range got {
		for r, call := range calls {
			for i := range call {
				want := fmt.Sprintf("b%d-r%d-i%d", g, r, i)
				if p := at[call[0]+uint64(i)]; string(p) != want {
					t.Fatalf("replay at LSN %d = %q, want %q", call[0]+uint64(i), p, want)
				}
			}
		}
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w := testOpen(t, t.TempDir())
	if _, err := w.Append([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("y")); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestCrashDuringCheckpointLeavesTmpIgnored(t *testing.T) {
	dir := t.TempDir()
	w := testOpen(t, dir)
	if _, err := w.Append([]byte("keep-me")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// Simulate a crash mid-checkpoint: a temp file that was never renamed.
	tmp := filepath.Join(dir, ckptPrefix+"0000000000000001"+ckptSuffix+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := testOpen(t, dir)
	if _, _, ok, _ := w2.LatestCheckpoint(); ok {
		t.Fatal("temp checkpoint treated as real")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale checkpoint temp file not cleaned up")
	}
	lsns, _ := replayAll(t, w2)
	if len(lsns) != 1 {
		t.Fatalf("replayed %d records, want 1", len(lsns))
	}
}

func TestStaleRotationTmpIgnored(t *testing.T) {
	// Foreign and temp files in the directory must not confuse recovery.
	dir := t.TempDir()
	w := testOpen(t, dir)
	if _, err := w.Append([]byte("real")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	for _, name := range []string{"notes.txt", "checkpoint-zzzz.ckpt", segPrefix + "junk" + segSuffix + tmpSuffix} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w2 := testOpen(t, dir)
	lsns, _ := replayAll(t, w2)
	if len(lsns) != 1 {
		t.Fatalf("replayed %d records, want 1", len(lsns))
	}
}

func TestBadHeaderLastSegmentDropped(t *testing.T) {
	dir := t.TempDir()
	w := testOpen(t, dir)
	if _, err := w.Append([]byte("survivor")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	// A crash during rotation can leave a next segment with a short or
	// garbled header; it holds no committed records.
	junk := filepath.Join(dir, segPrefix+"ffffffffffffffff"+segSuffix)
	if err := os.WriteFile(junk, []byte("SMAT"), 0o644); err != nil {
		t.Fatal(err)
	}
	w2 := testOpen(t, dir)
	lsns, _ := replayAll(t, w2)
	if len(lsns) != 1 {
		t.Fatalf("replayed %d records, want 1", len(lsns))
	}
	if _, err := os.Stat(junk); !os.IsNotExist(err) {
		t.Fatal("header-less segment not removed")
	}
}

func TestOpenRequiresDir(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without Dir accepted")
	}
}

func TestRecordFrameStability(t *testing.T) {
	// The on-disk frame must stay byte-stable: recovery of logs written
	// by an older build depends on it.
	got := appendRecord(nil, []byte("ab"))
	if len(got) != recOverhead+2 {
		t.Fatalf("frame length %d", len(got))
	}
	if !strings.HasPrefix(string(got[4:]), "\x01ab") {
		t.Fatalf("frame %x lacks version+payload", got)
	}
	payload, n, err := parseRecord(got)
	if err != nil || n != len(got) || string(payload) != "ab" {
		t.Fatalf("parseRecord: payload=%q n=%d err=%v", payload, n, err)
	}
}
