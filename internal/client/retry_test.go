// Resilience tests: connection poisoning after timeouts (no cross-request
// desync), bounded retry for idempotent requests, uploads surfacing
// errors instead of retrying, and the backoff envelope. Each test runs a
// scripted TLS server whose per-connection behavior is chosen by
// connection index, so "first connection misbehaves, the redial works" is
// deterministic; every script acks the hello (expectHello, mux_test.go)
// and then speaks raw v2 frames.
package client

import (
	"errors"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"smatch/internal/chain"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/server"
	"smatch/internal/wire"

	"crypto/tls"
)

// scriptServer runs a TLS listener whose per-connection behavior is
// handler(i, conn), with i the 0-based accept index.
func scriptServer(t *testing.T, handler func(i int, conn net.Conn)) string {
	t.Helper()
	cert, err := server.SelfSignedCert()
	if err != nil {
		t.Fatal(err)
	}
	ln, err := tls.Listen("tcp", "127.0.0.1:0", &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(i int, conn net.Conn) {
				defer conn.Close()
				handler(i, conn)
			}(i, conn)
		}
	}()
	return ln.Addr().String()
}

// respondQueries answers every query frame on the conn with a single
// result (user 42), echoing the request's QueryID.
func respondQueries(t *testing.T, conn net.Conn, delayFirst time.Duration) {
	if !expectHello(t, conn, 0) {
		return
	}
	first := true
	for {
		id, typ, payload, err := wire.ReadFrameV2(conn)
		if err != nil {
			return
		}
		if typ != wire.TypeQueryReq {
			return
		}
		req, err := wire.DecodeQueryReq(payload)
		if err != nil {
			return
		}
		if first && delayFirst > 0 {
			time.Sleep(delayFirst)
		}
		first = false
		resp := wire.QueryResp{
			QueryID:   req.QueryID,
			Timestamp: time.Now().Unix(),
			Results:   []match.Result{{ID: 42, Auth: []byte{1}}},
		}
		if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.AppendEncode(nil)); err != nil {
			return
		}
	}
}

func TestTimeoutPoisonsConnNoDesync(t *testing.T) {
	// Connection 0 serves the first query's response too late; later
	// connections respond promptly. Before the fix, the timed-out
	// connection was reused and the second query read the first query's
	// stale response (QueryID desync). Now the timeout on a connection
	// that stayed silent poisons it and the second query runs on a fresh
	// one.
	addr := scriptServer(t, func(i int, conn net.Conn) {
		var delay time.Duration
		if i == 0 {
			delay = 600 * time.Millisecond
		}
		respondQueries(t, conn, delay)
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: 150 * time.Millisecond, MaxRetries: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Query(1, 5); err == nil {
		t.Fatal("delayed query did not time out")
	}
	results, err := c.Query(1, 5)
	if err != nil {
		t.Fatalf("query after timeout failed: %v (desync or dead conn)", err)
	}
	if len(results) != 1 || results[0].ID != 42 {
		t.Errorf("results = %+v, want user 42 (a stale response leaked through)", results)
	}
	if got := reg.ClientBrokenConns.Load(); got != 1 {
		t.Errorf("client_broken_conns = %d, want 1", got)
	}
	if got := reg.ClientReconnects.Load(); got != 1 {
		t.Errorf("client_reconnects = %d, want 1", got)
	}
}

func TestIdempotentRetryRecovers(t *testing.T) {
	// Connection 0 answers with a torn frame (half a header, then close);
	// the retry on a fresh connection succeeds without the caller seeing
	// the fault.
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if i == 0 {
			if !expectHello(t, conn, 0) {
				return
			}
			if _, _, _, err := wire.ReadFrameV2(conn); err != nil {
				return
			}
			conn.Write([]byte{0x00, 0x00, 0x01}) // mid-frame reset
			return
		}
		respondQueries(t, conn, 0)
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: 2 * time.Second, MaxRetries: 2, RetryBackoff: 5 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	results, err := c.Query(1, 5)
	if err != nil {
		t.Fatalf("query did not recover from torn response: %v", err)
	}
	if len(results) != 1 || results[0].ID != 42 {
		t.Errorf("results = %+v, want user 42", results)
	}
	if got := reg.ClientRetries.Load(); got == 0 {
		t.Error("retry not counted")
	}
}

func TestRetriesExhaustedSurfacesError(t *testing.T) {
	// Every connection tears the response: after MaxRetries the last
	// connection failure must surface instead of looping forever.
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if !expectHello(t, conn, 0) {
			return
		}
		if _, _, _, err := wire.ReadFrameV2(conn); err != nil {
			return
		}
		conn.Write([]byte{0x00})
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: time.Second, MaxRetries: 2, RetryBackoff: 5 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Query(1, 5); err == nil {
		t.Fatal("query succeeded against a server that always tears responses")
	}
	if got := reg.ClientRetries.Load(); got != 2 {
		t.Errorf("client_retries = %d, want exactly MaxRetries=2", got)
	}
}

func TestUploadNotRetriedButConnRecovers(t *testing.T) {
	// Connection 0 reads the upload and dies without acknowledging: the
	// client must NOT resend the mutation (it may have been applied), but
	// the connection must recover for the next request.
	var uploadsSeen atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if !expectHello(t, conn, 0) {
			return
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil {
				return
			}
			switch typ {
			case wire.TypeUploadReq:
				uploadsSeen.Add(1)
				if i == 0 {
					return // die without acking
				}
				if err := wire.WriteFrameV2(conn, id, wire.TypeUploadResp, nil); err != nil {
					return
				}
			case wire.TypeQueryReq:
				req, err := wire.DecodeQueryReq(payload)
				if err != nil {
					return
				}
				resp := wire.QueryResp{QueryID: req.QueryID, Timestamp: time.Now().Unix()}
				if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.AppendEncode(nil)); err != nil {
					return
				}
			default:
				return
			}
		}
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: time.Second, MaxRetries: 3, RetryBackoff: 5 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	entry := match.Entry{
		ID:      9,
		KeyHash: []byte("bucket"),
		Chain:   &chain.Chain{Cts: []*big.Int{big.NewInt(5)}, CtBits: 48},
		Auth:    []byte{1},
	}
	if err := c.Upload(entry); err == nil {
		t.Fatal("unacknowledged upload reported success")
	}
	if got := uploadsSeen.Load(); got != 1 {
		t.Fatalf("server saw %d upload requests, want 1 (uploads must not be retried)", got)
	}
	// The connection recovers: the next request redials transparently.
	if _, err := c.Query(1, 5); err != nil {
		t.Fatalf("query after failed upload did not recover: %v", err)
	}
	if err := c.Upload(entry); err != nil {
		t.Fatalf("explicit re-upload failed: %v", err)
	}
	if got := uploadsSeen.Load(); got != 2 {
		t.Errorf("server saw %d uploads after explicit re-upload, want 2", got)
	}
}

func TestRequestAfterCloseFails(t *testing.T) {
	addr := scriptServer(t, func(i int, conn net.Conn) {
		respondQueries(t, conn, 0)
	})
	c, err := Dial(addr, Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Query(1, 5); !errors.Is(err, ErrClosed) {
		t.Errorf("query after Close: err = %v, want ErrClosed", err)
	}
}

func TestBackoffDelayEnvelope(t *testing.T) {
	const base = 10 * time.Millisecond
	const cap = 80 * time.Millisecond
	for n := 1; n <= 6; n++ {
		env := base << (n - 1)
		if env > cap {
			env = cap
		}
		for trial := 0; trial < 50; trial++ {
			d := backoffDelay(n, base, cap)
			if d < env/2 || d > env {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", n, d, env/2, env)
			}
		}
	}
	if d := backoffDelay(3, 0, cap); d != 0 {
		t.Errorf("zero base produced delay %v", d)
	}
}
