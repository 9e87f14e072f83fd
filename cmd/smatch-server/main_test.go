package main

import (
	"bytes"
	"fmt"
	"maps"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smatch/internal/chain"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/wire"
)

func testStore(t *testing.T, users int) *match.Server {
	t.Helper()
	s := match.NewServer()
	for i := 1; i <= users; i++ {
		err := s.Upload(match.Entry{
			ID:      profile.ID(i),
			KeyHash: []byte(fmt.Sprintf("bucket-%d", i%7)),
			Chain:   &chain.Chain{Cts: []*big.Int{big.NewInt(int64(i))}, CtBits: 48},
			Auth:    []byte{byte(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// writeSnapshot writes s's snapshot to a fresh file and returns its path.
func writeSnapshot(t *testing.T, s *match.Server) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := s.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func snapshotBytes(t *testing.T, s *match.Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// dirContents maps each file in dir to its bytes.
func dirContents(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

func TestLoadStoreCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.bin")
	if err := os.WriteFile(path, []byte("definitely not a snapshot"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := loadStore(path); err == nil {
		t.Error("corrupt snapshot accepted")
	}
}

// journalUpload pushes one user through the serving path's journal-then-
// apply sequence, so openState tests exercise real WAL records.
func journalUpload(t *testing.T, j *server.Journal, s *match.Server, id profile.ID, sum int64) {
	t.Helper()
	entry := match.Entry{
		ID:      id,
		KeyHash: []byte("bucket"),
		Chain:   &chain.Chain{Cts: []*big.Int{big.NewInt(sum)}, CtBits: 48},
		Auth:    []byte{byte(id)},
	}
	req := wire.UploadReqOf(entry)
	if err := j.AppendUploadBatch([]*wire.UploadReq{&req}); err != nil {
		t.Fatal(err)
	}
	if err := s.Upload(entry); err != nil {
		t.Fatal(err)
	}
}

func TestOpenStateFreshWALDirThenRecover(t *testing.T) {
	// -wal on an empty directory: fresh start, then a reopen replays the
	// journaled tail with no checkpoint present.
	walDir := t.TempDir()
	store, journal, err := openState(walDir, "", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	if journal == nil {
		t.Fatal("-wal did not produce a journal")
	}
	if store.NumUsers() != 0 {
		t.Fatalf("fresh WAL dir yielded %d users", store.NumUsers())
	}
	for i := 1; i <= 3; i++ {
		journalUpload(t, journal, store, profile.ID(i), int64(i))
	}
	journal.Close()

	store2, journal2, err := openState(walDir, "", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	if store2.NumUsers() != 3 {
		t.Fatalf("recovered %d users from log tail, want 3", store2.NumUsers())
	}
	if got := journal2.WAL().LastLSN(); got != 3 {
		t.Errorf("recovered LastLSN = %d, want 3", got)
	}
}

func TestOpenStateRecoversCheckpointPlusTail(t *testing.T) {
	// Crash after a checkpoint with more journaled writes on top: recovery
	// must compose both.
	walDir := t.TempDir()
	store, journal, err := openState(walDir, "", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	journalUpload(t, journal, store, 1, 10)
	journalUpload(t, journal, store, 2, 20)
	if err := journal.Checkpoint(store); err != nil {
		t.Fatal(err)
	}
	journalUpload(t, journal, store, 3, 30)
	journal.Close()

	store2, journal2, err := openState(walDir, "", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	if store2.NumUsers() != 3 {
		t.Fatalf("recovered %d users from checkpoint+tail, want 3", store2.NumUsers())
	}
	if got := journal2.WAL().CheckpointLSN(); got != 2 {
		t.Errorf("recovered checkpoint LSN = %d, want 2", got)
	}
}

func TestOpenStateImportJournalsEveryEntry(t *testing.T) {
	// The import writes one ordinary upload record per user at LSNs 1..n,
	// so a follower pulling from LSN 1 receives every imported user, and
	// replaying those records rebuilds exactly the imported snapshot.
	storePath := writeSnapshot(t, testStore(t, 300))
	_, journal, err := openState(t.TempDir(), storePath, metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()
	recs, err := journal.WAL().ReadFrom(1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 300 {
		t.Fatalf("ReadFrom(1) returned %d records, want 300", len(recs))
	}
	replayed := match.NewServer()
	for _, rec := range recs {
		if err := server.ApplyRecord(replayed, rec); err != nil {
			t.Fatal(err)
		}
	}
	want, err := loadStore(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshotBytes(t, replayed), snapshotBytes(t, want)) {
		t.Fatal("replaying the imported records does not rebuild the imported snapshot")
	}
}

func TestOpenStateSeedsFreshWALFromSnapshot(t *testing.T) {
	// First boot with -wal next to an existing -store snapshot imports it;
	// the WAL alone then reproduces the imported state.
	seed := testStore(t, 300)
	storePath := writeSnapshot(t, seed)
	walDir := t.TempDir()
	store, journal, err := openState(walDir, storePath, metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	if store.NumUsers() != 300 {
		t.Fatalf("imported store has %d users, want 300", store.NumUsers())
	}
	journal.Close()

	store2, journal2, err := openState(walDir, "", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	if !bytes.Equal(snapshotBytes(t, store2), snapshotBytes(t, seed)) {
		t.Fatalf("WAL not self-contained after the import: %d users, want the 300 imported", store2.NumUsers())
	}
}

func TestOpenStateWALStateWinsOverSnapshot(t *testing.T) {
	// Once the WAL directory holds state it is the source of truth: -store
	// against it is refused, and the WAL is left exactly as it was.
	walDir := t.TempDir()
	store, journal, err := openState(walDir, "", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		journalUpload(t, journal, store, profile.ID(i), int64(i))
	}
	journal.Close()
	before := dirContents(t, walDir)

	storePath := writeSnapshot(t, testStore(t, 7))
	if _, _, err := openState(walDir, storePath, metrics.New()); err == nil ||
		!strings.Contains(err.Error(), "-store") || !strings.Contains(err.Error(), "-wal") {
		t.Fatalf("import into a non-empty WAL: err = %v, want a refusal naming -store and -wal", err)
	}
	if !maps.Equal(dirContents(t, walDir), before) {
		t.Fatal("refused import changed the WAL directory")
	}
	store2, journal2, err := openState(walDir, "", metrics.New())
	if err != nil {
		t.Fatal(err)
	}
	defer journal2.Close()
	if store2.NumUsers() != 3 || journal2.WAL().LastLSN() != 3 {
		t.Fatalf("after refusal: %d users, last LSN %d; want 3 and 3", store2.NumUsers(), journal2.WAL().LastLSN())
	}
}

func TestOpenStateImportMissingFileRefused(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	_, _, err := openState(walDir, filepath.Join(t.TempDir(), "absent.bin"), metrics.New())
	if err == nil || !strings.Contains(err.Error(), "-store") {
		t.Fatalf("missing -store file: err = %v, want a refusal naming -store", err)
	}
	if _, err := os.Stat(walDir); !os.IsNotExist(err) {
		t.Error("refused import created the WAL directory")
	}
}

func TestSnapshotBytesStable(t *testing.T) {
	// Two snapshots of the same store decode to equivalent stores (the
	// byte stream may reorder map iteration, so compare semantically).
	s := testStore(t, 5)
	ra, err := match.Restore(bytes.NewReader(snapshotBytes(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := match.Restore(bytes.NewReader(snapshotBytes(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	if ra.NumUsers() != rb.NumUsers() || ra.NumBuckets() != rb.NumBuckets() {
		t.Error("two snapshots of the same store restore differently")
	}
}

func TestValidate(t *testing.T) {
	for _, tc := range []struct {
		name  string
		o     options
		flags []string // nil: valid; otherwise each must appear in the error
	}{
		{"single node, memory only", options{}, nil},
		{"single node, wal", options{walDir: "w"}, nil},
		{"single node, one-time import", options{walDir: "w", storePath: "s"}, nil},
		{"semi-sync leader", options{walDir: "w", syncRepl: true}, nil},
		{"follower", options{walDir: "w", replicaOf: "l:1", nodeID: "n"}, nil},
		{"router", options{router: true, peers: "a=h:1"}, nil},

		{"router without peers", options{router: true}, []string{"-router", "-peers"}},
		{"router with wal", options{router: true, peers: "a=h:1", walDir: "w"}, []string{"-router", "-wal"}},
		{"router with store", options{router: true, peers: "a=h:1", storePath: "s"}, []string{"-router", "-store"}},
		{"router with replica-of", options{router: true, peers: "a=h:1", replicaOf: "l:1"}, []string{"-router", "-replica-of"}},
		{"router with sync-repl", options{router: true, peers: "a=h:1", syncRepl: true}, []string{"-router", "-sync-repl"}},
		{"peers without router", options{peers: "a=h:1"}, []string{"-peers", "-router"}},
		{"sync-repl without wal", options{syncRepl: true}, []string{"-sync-repl", "-wal"}},
		{"replica-of without wal", options{replicaOf: "l:1", nodeID: "n"}, []string{"-replica-of", "-wal"}},
		{"replica-of without node-id", options{replicaOf: "l:1", walDir: "w"}, []string{"-replica-of", "-node-id"}},
		{"store without wal", options{storePath: "s"}, []string{"-store", "-wal"}},
		{"store on a follower", options{storePath: "s", walDir: "w", replicaOf: "l:1", nodeID: "n"}, []string{"-store", "-replica-of"}},
	} {
		err := validate(tc.o)
		if tc.flags == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		for _, f := range tc.flags {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%s: error %q does not name %s", tc.name, err, f)
			}
		}
	}
}

func TestParsePeers(t *testing.T) {
	nodes, err := parsePeers("node-a=10.0.0.1:7788, node-b=10.0.0.2:7788")
	if err != nil {
		t.Fatal(err)
	}
	if len(nodes) != 2 || nodes[0].ID != "node-a" || nodes[1].Addr != "10.0.0.2:7788" {
		t.Fatalf("parsed %+v", nodes)
	}
	for _, bad := range []string{"", "no-equals", "=addr", "id=", ","} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}
