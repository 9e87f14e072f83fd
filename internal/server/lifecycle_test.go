// Connection-lifecycle tests: write deadlines releasing stalled handlers,
// graceful drain, the max-connections cap, accept-error cleanup, and
// goroutine hygiene on shutdown. net.Pipe (servePipe) is used where
// determinism matters.
package server

import (
	"context"
	"crypto/x509"
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"smatch/internal/client"
	"smatch/internal/wire"
)

// wgDone returns a channel closed once every handler goroutine has exited.
func wgDone(srv *Server) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		srv.wg.Wait()
		close(done)
	}()
	return done
}

func TestStalledReaderReleasedByWriteDeadline(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t), WriteTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Upload(matchEntryForTest(1, "b", 5)); err != nil {
		t.Fatal(err)
	}
	cli := helloRaw(t, servePipe(t, srv))

	// Send a query, then never read the response: the pipe has no
	// buffering, so the server's response write stalls immediately.
	req := wire.QueryReq{QueryID: 1, Timestamp: time.Now().Unix(), ID: 1, TopK: 1}
	cli.send(1, wire.TypeQueryReq, req.Encode())
	select {
	case <-wgDone(srv):
		// Handler released: the write deadline fired and the connection
		// was dropped instead of parking the goroutine forever.
	case <-time.After(3 * time.Second):
		t.Fatal("handler still parked in the response write after 3s; write deadline not applied")
	}
	if got := srv.Metrics().WriteTimeouts.Load(); got == 0 {
		t.Error("write timeout not counted in metrics")
	}
	if got := srv.Metrics().ActiveConns.Load(); got != 0 {
		t.Errorf("active_conns = %d after stalled conn dropped, want 0", got)
	}
}

func TestShutdownDrainsInFlightRequest(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t), WriteTimeout: 5 * time.Second, DrainTimeout: 3 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Upload(matchEntryForTest(1, "b", 5)); err != nil {
		t.Fatal(err)
	}
	cli := helloRaw(t, servePipe(t, srv))

	req := wire.QueryReq{QueryID: 7, Timestamp: time.Now().Unix(), ID: 1, TopK: 1}
	cli.send(3, wire.TypeQueryReq, req.Encode())
	// Give the handler time to pick up the request and block in the
	// response write (the pipe is unbuffered and we haven't read yet).
	time.Sleep(100 * time.Millisecond)

	shutdownErr := make(chan error, 1)
	go func() { shutdownErr <- srv.Shutdown() }()
	// Shutdown must not kill the in-flight request: the response is still
	// readable after the drain begins.
	time.Sleep(100 * time.Millisecond)
	cli.conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	id, typ, payload := cli.recv() // fails the test if the response was lost
	if id != 3 || typ != wire.TypeQueryResp {
		t.Fatalf("got frame id %d type %d, want the query response for request 3", id, typ)
	}
	resp, err := wire.DecodeQueryResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.QueryID != 7 {
		t.Errorf("drained response for query %d, want 7", resp.QueryID)
	}
	select {
	case err := <-shutdownErr:
		if err != nil {
			t.Errorf("Shutdown returned %v, want nil (clean drain)", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Shutdown did not return after the in-flight request finished")
	}
	if got := srv.Metrics().ConnsDrained.Load(); got != 1 {
		t.Errorf("conns_drained = %d, want 1", got)
	}
	if got := srv.Metrics().DrainForcedCloses.Load(); got != 0 {
		t.Errorf("drain_forced_closes = %d, want 0", got)
	}
}

func TestShutdownForceClosesAtDrainDeadline(t *testing.T) {
	// The busy connection never drains (its reader is stalled and the
	// write deadline is far away), so the drain deadline must force-close
	// it rather than hang.
	srv, err := New(Config{OPRF: testOPRF(t), WriteTimeout: time.Minute, DrainTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Store().Upload(matchEntryForTest(1, "b", 5)); err != nil {
		t.Fatal(err)
	}
	cli := helloRaw(t, servePipe(t, srv))
	req := wire.QueryReq{QueryID: 1, Timestamp: time.Now().Unix(), ID: 1, TopK: 1}
	cli.send(1, wire.TypeQueryReq, req.Encode())
	time.Sleep(100 * time.Millisecond) // handler now blocked writing the response

	start := time.Now()
	err = srv.Shutdown()
	if err == nil {
		t.Error("Shutdown reported a clean drain despite a stalled connection")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Shutdown took %v, want ~DrainTimeout (300ms)", elapsed)
	}
	if got := srv.Metrics().DrainForcedCloses.Load(); got != 1 {
		t.Errorf("drain_forced_closes = %d, want 1", got)
	}
	select {
	case <-wgDone(srv):
	case <-time.After(2 * time.Second):
		t.Fatal("handler goroutine leaked past the forced close")
	}
}

func TestShutdownClosesIdleConnsImmediately(t *testing.T) {
	addr, srv := startServer(t)
	conn := dial(t, addr)
	if _, err := conn.OPRFPublicKey(); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := srv.Shutdown(); err != nil {
		t.Errorf("Shutdown of an idle server returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("idle drain took %v, want immediate", elapsed)
	}
}

func TestServeAcceptErrorCleansUp(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t)})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(context.Background()) }()

	conn, err := client.Dial(a.String(), client.Options{Timeout: 2 * time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.OPRFPublicKey(); err != nil {
		t.Fatal(err)
	}
	// Kill the listener out from under Serve without marking the server
	// closed: Serve hits the accept-error path, which must tear down the
	// open connection and wait for its handler instead of leaking both.
	srv.ln.Close()
	select {
	case err := <-serveErr:
		if err == nil {
			t.Fatal("Serve returned nil for an unexpected accept error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after the listener died")
	}
	// The tracked connection was closed: the next request fails rather
	// than hanging (retries are disabled, so no reconnect masking).
	if _, err := conn.OPRFPublicKey(); err == nil {
		t.Error("connection still alive after accept-error teardown")
	}
	if got := srv.Metrics().ActiveConns.Load(); got != 0 {
		t.Errorf("active_conns = %d after accept-error teardown, want 0", got)
	}
}

func TestMaxConnsCapRejectsOverflow(t *testing.T) {
	srv, err := New(Config{
		OPRF:          testOPRF(t),
		MaxConns:      2,
		AcceptBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
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
			t.Error("server did not shut down")
		}
	})

	c1 := dial(t, a.String())
	c2 := dial(t, a.String())
	if _, err := c1.OPRFPublicKey(); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.OPRFPublicKey(); err != nil {
		t.Fatal(err)
	}
	// Third dial: at the cap, Serve stops accepting; after AcceptBackoff
	// the pending connection is accepted and closed, so the TLS handshake
	// fails instead of hanging.
	if _, err := client.Dial(a.String(), client.Options{Timeout: 3 * time.Second, MaxRetries: -1}); err == nil {
		t.Fatal("third connection admitted past MaxConns=2")
	}
	if got := srv.Metrics().ConnsRejected.Load(); got == 0 {
		t.Error("rejected connection not counted")
	}
	if got := srv.Metrics().ActiveConns.Load(); got > 2 {
		t.Errorf("active_conns = %d, exceeds cap 2", got)
	}

	// Freeing a slot re-admits new connections.
	c1.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c3, err := client.Dial(a.String(), client.Options{Timeout: time.Second, MaxRetries: -1})
		if err == nil {
			if _, err := c3.OPRFPublicKey(); err != nil {
				t.Fatalf("re-admitted connection unusable: %v", err)
			}
			c3.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no connection admitted after freeing a slot: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestShutdownLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	srv, err := New(Config{OPRF: testOPRF(t), DrainTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()

	conns := make([]*client.Conn, 0, 4)
	for i := 0; i < 4; i++ {
		c, err := client.Dial(a.String(), client.Options{Timeout: 2 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		if _, err := c.OPRFPublicKey(); err != nil {
			t.Fatal(err)
		}
	}
	// A fifth connection is accepted but has not said hello when the drain
	// starts: it is idle by definition and must be closed at once, like
	// the four idle sessions, not held until DrainTimeout.
	silent := dialRawTLS(t, a.String())
	for deadline := time.Now().Add(3 * time.Second); srv.Metrics().ActiveConns.Load() != 5; {
		if time.Now().After(deadline) {
			t.Fatalf("active_conns = %d, want 5 before the drain", srv.Metrics().ActiveConns.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after cancellation")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("drain of five idle connections took %v, want immediate (DrainTimeout is 2s)", elapsed)
	}
	if got := srv.Metrics().DrainForcedCloses.Load(); got != 0 {
		t.Errorf("drain_forced_closes = %d, want 0", got)
	}
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if n, err := silent.Read(make([]byte, 1)); err == nil || n != 0 {
		t.Errorf("pre-hello conn read %d bytes, err %v after the drain; want it closed", n, err)
	}
	for _, c := range conns {
		c.Close()
	}

	// Goroutine counts need settling time (TLS teardown, test plumbing).
	deadline := time.Now().Add(3 * time.Second)
	for {
		runtime.GC()
		after := runtime.NumGoroutine()
		if after <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines: before=%d after=%d; leaked stacks:\n%s", before, after, leakyStacks(string(buf[:n])))
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// leakyStacks filters a full stack dump down to goroutines mentioning this
// module, so a leak failure points at the culprit.
func leakyStacks(dump string) string {
	var out []string
	for _, g := range strings.Split(dump, "\n\n") {
		if strings.Contains(g, "smatch/") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}

func TestSelfSignedCertSerialIsRandom(t *testing.T) {
	serials := make(map[string]bool)
	for i := 0; i < 3; i++ {
		cert, err := SelfSignedCert()
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := x509.ParseCertificate(cert.Certificate[0])
		if err != nil {
			t.Fatal(err)
		}
		if parsed.SerialNumber.Sign() <= 0 {
			t.Fatalf("serial %v not positive", parsed.SerialNumber)
		}
		serials[parsed.SerialNumber.String()] = true
	}
	if len(serials) != 3 {
		t.Errorf("serial collision across %d certificates: %v", 3, serials)
	}
}

func TestIsTimeoutClassifiesErrors(t *testing.T) {
	cli, sc := net.Pipe()
	defer cli.Close()
	defer sc.Close()
	sc.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := sc.Read(buf)
	if !isTimeout(err) {
		t.Errorf("deadline error %v not classified as timeout", err)
	}
	if isTimeout(errors.New("plain")) {
		t.Error("plain error classified as timeout")
	}
}
