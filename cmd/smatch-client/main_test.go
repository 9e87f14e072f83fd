package main

import (
	"context"
	"strings"
	"testing"
	"time"

	"smatch/internal/match"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/server"
)

func startTestServer(t *testing.T) string {
	t.Helper()
	addr, _ := startTestServerStore(t)
	return addr
}

// startTestServerStore also returns the server's store, for tests that
// check what reached it.
func startTestServerStore(t *testing.T) (string, *match.Server) {
	t.Helper()
	oprfSrv, err := oprf.NewServer(1024)
	if err != nil {
		t.Fatal(err)
	}
	store := match.NewServer()
	srv, err := server.New(server.Config{OPRF: oprfSrv, Store: store})
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
	t.Cleanup(func() {
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Error("test server did not stop")
		}
	})
	return addr.String(), store
}

func TestClientUploadAndQuery(t *testing.T) {
	addr := startTestServer(t)
	// Upload two users, then query one for the other with verification.
	if err := run(addr, "Infocom06", "upload", 1, 5, 8, 64, 64, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err != nil {
		t.Fatalf("upload user 1: %v", err)
	}
	if err := run(addr, "Infocom06", "upload", 2, 5, 8, 64, 64, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err != nil {
		t.Fatalf("upload user 2: %v", err)
	}
	if err := run(addr, "Infocom06", "query", 1, 5, 8, 64, 64, true, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err != nil {
		t.Fatalf("query: %v", err)
	}
}

// TestClientQueryVerifyRejects: a -verify query whose results fail Vf is
// an error, not a printed warning, so the command exits nonzero. Every
// stored auth blob but the querier's has one byte flipped.
func TestClientQueryVerifyRejects(t *testing.T) {
	addr, store := startTestServerStore(t)
	if err := run(addr, "Infocom06", "upload-all", 1, 5, 8, 64, 32, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err != nil {
		t.Fatalf("upload-all: %v", err)
	}
	var entries []match.Entry
	if err := store.ForEachEntry(func(e match.Entry) error {
		entries = append(entries, e)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	// The querier is the first user whose bucket holds someone else.
	var querier profile.ID
	for _, e := range entries {
		if store.BucketSize(e.KeyHash) > 1 {
			querier = e.ID
			break
		}
	}
	if querier == 0 {
		t.Fatal("no bucket holds two users")
	}
	if err := run(addr, "Infocom06", "query", querier, 5, 8, 64, 64, true, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err != nil {
		t.Fatalf("query before tampering: %v", err)
	}
	for _, e := range entries {
		if e.ID == querier {
			continue
		}
		e.Auth[len(e.Auth)-1] ^= 1
		if err := store.Upload(e); err != nil {
			t.Fatal(err)
		}
	}
	err := run(addr, "Infocom06", "query", querier, 5, 8, 64, 64, true, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, "")
	if err == nil || !strings.Contains(err.Error(), "failed Vf") {
		t.Fatalf("query over tampered auth blobs returned %v, want a failed-Vf error", err)
	}
}

// TestClientUploadAll: -cmd upload-all sends the whole dataset in -batch
// sized frames (78 users at 32 per frame is three frames, the last one
// short), and a verified query over the result passes.
func TestClientUploadAll(t *testing.T) {
	addr, store := startTestServerStore(t)
	if err := run(addr, "Infocom06", "upload-all", 1, 5, 8, 64, 32, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err != nil {
		t.Fatalf("upload-all: %v", err)
	}
	if n := store.NumUsers(); n != 78 {
		t.Fatalf("store holds %d users after upload-all, want all 78 Infocom06 users", n)
	}
	if err := run(addr, "Infocom06", "query", 7, 5, 8, 64, 32, true, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err != nil {
		t.Fatalf("verified query: %v", err)
	}
	for _, batch := range []int{0, 257} {
		if err := run(addr, "Infocom06", "upload-all", 1, 5, 8, 64, batch, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err == nil {
			t.Errorf("-batch %d accepted", batch)
		}
	}
}

func TestClientSubscribeWatch(t *testing.T) {
	addr := startTestServer(t)
	// A short -watch window: subscribe, listen, unsubscribe cleanly. A
	// concurrent upload of a same-dataset user may or may not land within
	// the threshold before the window closes; the command must exit zero
	// either way.
	uploadDone := make(chan error, 1)
	go func() {
		uploadDone <- run(addr, "Infocom06", "upload", 2, 5, 8, 64, 64, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, "")
	}()
	if err := run(addr, "Infocom06", "subscribe", 1, 5, 8, 64, 64, false, 10*time.Second, 2, 50*time.Millisecond, 0, 1<<20, 2*time.Second, ""); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	if err := <-uploadDone; err != nil {
		t.Fatalf("concurrent upload: %v", err)
	}
}

func TestClientUnknownUser(t *testing.T) {
	addr := startTestServer(t)
	if err := run(addr, "Infocom06", "upload", 9999, 5, 8, 64, 64, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err == nil {
		t.Error("upload of nonexistent user succeeded")
	}
}

func TestClientUnknownCommand(t *testing.T) {
	addr := startTestServer(t)
	if err := run(addr, "Infocom06", "destroy", 1, 5, 8, 64, 64, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err == nil {
		t.Error("unknown command accepted")
	}
}

func TestClientUnknownDataset(t *testing.T) {
	if err := run("127.0.0.1:1", "Orkut", "upload", 1, 5, 8, 64, 64, false, time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestClientQueryBeforeUpload(t *testing.T) {
	addr := startTestServer(t)
	if err := run(addr, "Infocom06", "query", 1, 5, 8, 64, 64, false, 10*time.Second, 2, 50*time.Millisecond, 0, 100, 0, ""); err == nil {
		t.Error("query for never-uploaded user succeeded")
	}
}
