// Tests for the request multiplexer and the hello exchange: window
// negotiation, out-of-order response routing, per-request timeouts that
// spare a live connection, silent-connection poisoning, and the dial
// error against a server that does not ack the hello.
package client

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

// expectHello consumes the client's hello and acks it, optionally
// clamping the window.
func expectHello(t *testing.T, conn net.Conn, ackDepth uint16) bool {
	t.Helper()
	id, typ, payload, err := wire.ReadFrameV2(conn)
	if err != nil || id != 0 || typ != wire.TypeHello {
		return false
	}
	if _, err := wire.DecodeHello(payload); err != nil {
		return false
	}
	ack := wire.Hello{Version: wire.ProtocolV2, Depth: ackDepth}
	return wire.WriteFrameV2(conn, 0, wire.TypeHelloResp, ack.AppendEncode(nil)) == nil
}

// queryRespFor answers a v2 query frame, echoing the QueryID and
// returning the queried user itself as the single result so the test can
// detect any misrouting.
func queryRespFor(payload []byte) (*wire.QueryResp, error) {
	req, err := wire.DecodeQueryReq(payload)
	if err != nil {
		return nil, err
	}
	return &wire.QueryResp{
		QueryID:   req.QueryID,
		Timestamp: time.Now().Unix(),
		Results:   []match.Result{{ID: req.ID, Auth: []byte{1}}},
	}, nil
}

func TestMuxRoutesOutOfOrderResponses(t *testing.T) {
	// The server holds four requests and answers them in reverse order;
	// every caller must still receive its own response (the client
	// verifies both the request ID routing and the QueryID echo).
	const n = 4
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if !expectHello(t, conn, 0) {
			return
		}
		type held struct {
			id      uint64
			payload []byte
		}
		var frames []held
		for len(frames) < n {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			frames = append(frames, held{id, payload})
		}
		for j := len(frames) - 1; j >= 0; j-- {
			resp, err := queryRespFor(frames[j].payload)
			if err != nil {
				return
			}
			if err := wire.WriteFrameV2(conn, frames[j].id, wire.TypeQueryResp, resp.AppendEncode(nil)); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, Options{Timeout: 2 * time.Second, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for u := 1; u <= n; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			results, err := c.Query(profile.ID(u), 1)
			if err != nil {
				errs <- err
				return
			}
			if len(results) != 1 || int(results[0].ID) != u {
				errs <- fmt.Errorf("caller %d got %+v (misrouted response)", u, results)
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMuxTimeoutOnLiveConnDoesNotPoison(t *testing.T) {
	// The server silently drops every query for user 66 but keeps
	// answering user 1. The dropped request must time out WITHOUT
	// poisoning the shared connection: the background caller never
	// breaks, nothing redials.
	var accepts atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		accepts.Add(1)
		if !expectHello(t, conn, 0) {
			return
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			req, err := wire.DecodeQueryReq(payload)
			if err != nil {
				return
			}
			if req.ID == 66 {
				continue // drop: never answer this one
			}
			resp, err := queryRespFor(payload)
			if err != nil {
				return
			}
			if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.AppendEncode(nil)); err != nil {
				return
			}
		}
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: 400 * time.Millisecond, MaxRetries: -1, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Background traffic keeps the conn demonstrably alive while the
	// dropped request waits out its timeout.
	stop := make(chan struct{})
	var bgErr atomic.Value
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.Query(1, 1); err != nil {
				bgErr.Store(err)
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()

	if _, err := c.Query(66, 1); err == nil {
		t.Error("dropped query reported success")
	} else if isConnFailure(err) {
		t.Errorf("timeout on a live conn poisoned the session: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := bgErr.Load(); err != nil {
		t.Errorf("background caller failed: %v", err)
	}
	if got := accepts.Load(); got != 1 {
		t.Errorf("server saw %d connections, want 1 (no redial)", got)
	}
	if got := reg.ClientBrokenConns.Load(); got != 0 {
		t.Errorf("client_broken_conns = %d, want 0", got)
	}
}

func TestMuxSilentConnPoisonedAndRedialed(t *testing.T) {
	// Connection 0 upgrades, then never answers anything: the first
	// query's timeout must poison it (the conn was silent the whole
	// wait) and the retry must succeed on a fresh connection.
	var accepts atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		accepts.Add(1)
		if !expectHello(t, conn, 0) {
			return
		}
		if i == 0 {
			// Swallow requests forever.
			for {
				if _, _, _, err := wire.ReadFrameV2(conn); err != nil {
					return
				}
			}
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			resp, err := queryRespFor(payload)
			if err != nil {
				return
			}
			if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.AppendEncode(nil)); err != nil {
				return
			}
		}
	})
	reg := metrics.New()
	c, err := Dial(addr, Options{Timeout: 250 * time.Millisecond, MaxRetries: 2,
		RetryBackoff: 5 * time.Millisecond, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	results, err := c.Query(5, 1)
	if err != nil {
		t.Fatalf("query did not recover from a dead pipelined conn: %v", err)
	}
	if len(results) != 1 || results[0].ID != 5 {
		t.Errorf("results = %+v, want user 5", results)
	}
	if got := accepts.Load(); got != 2 {
		t.Errorf("server saw %d connections, want 2 (poison + redial)", got)
	}
	if got := reg.ClientBrokenConns.Load(); got == 0 {
		t.Error("silent conn not counted as broken")
	}
}

func TestDialRefusesServerWithoutV2(t *testing.T) {
	// A server that does not ack the hello with protocol v2 — it answers
	// with an error frame, closes, or acks another version — is a dial
	// error naming the protocol: each seed address is tried exactly once
	// (no fallback protocol, no redial loop) and no session exists after.
	for name, answer := range map[string]func(conn net.Conn){
		"error frame": func(conn net.Conn) {
			msg := wire.ErrorMsg{Text: "unknown message type"}
			wire.WriteFrameV2(conn, 0, wire.TypeError, msg.AppendEncode(nil))
		},
		"closes": func(net.Conn) {},
		"acks v3": func(conn net.Conn) {
			ack := wire.Hello{Version: wire.ProtocolV2 + 1, Depth: 8}
			wire.WriteFrameV2(conn, 0, wire.TypeHelloResp, ack.AppendEncode(nil))
		},
	} {
		t.Run(name, func(t *testing.T) {
			var accepts atomic.Int32
			script := func(i int, conn net.Conn) {
				accepts.Add(1)
				if id, typ, _, err := wire.ReadFrameV2(conn); err != nil || id != 0 || typ != wire.TypeHello {
					t.Errorf("first frame: ID %d, type %d, err %v; want a hello with ID 0", id, typ, err)
					return
				}
				answer(conn)
				// Anything the client sends after a refused hello is a bug.
				conn.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
				if _, typ, _, err := wire.ReadFrameV2(conn); err == nil {
					t.Errorf("client kept talking after the refused hello: frame type %d", typ)
				}
			}
			seeds := scriptServer(t, script) + "," + scriptServer(t, script)
			c, err := Dial(seeds, Options{Timeout: 2 * time.Second})
			if err == nil {
				c.Close()
				t.Fatal("Dial succeeded against servers that never acked protocol v2")
			}
			if !strings.Contains(err.Error(), "protocol v2") {
				t.Errorf("dial error %q does not name the required protocol", err)
			}
			if got := accepts.Load(); got != 2 {
				t.Errorf("servers saw %d connections, want 2 (one attempt per seed address)", got)
			}
		})
	}
}

func TestMuxWindowRespectsServerClamp(t *testing.T) {
	// The server acks the hello with Depth=1: even with many concurrent
	// callers, at most one request may be outstanding at a time.
	var inFlight, maxInFlight atomic.Int32
	addr := scriptServer(t, func(i int, conn net.Conn) {
		if !expectHello(t, conn, 1) {
			return
		}
		for {
			id, typ, payload, err := wire.ReadFrameV2(conn)
			if err != nil || typ != wire.TypeQueryReq {
				return
			}
			if v := inFlight.Add(1); v > maxInFlight.Load() {
				maxInFlight.Store(v)
			}
			time.Sleep(10 * time.Millisecond)
			resp, err := queryRespFor(payload)
			if err != nil {
				return
			}
			inFlight.Add(-1)
			if err := wire.WriteFrameV2(conn, id, wire.TypeQueryResp, resp.AppendEncode(nil)); err != nil {
				return
			}
		}
	})
	c, err := Dial(addr, Options{Timeout: 5 * time.Second, MaxInFlight: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := c.Query(profile.ID(g+1), 1); err != nil {
				t.Errorf("query %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	if got := maxInFlight.Load(); got > 1 {
		t.Errorf("observed %d concurrent requests, want at most the acked window of 1", got)
	}
}

// countingConn counts the Writes that reach the raw conn underneath TLS;
// each one carries at least one TLS record.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// TestOneWritePerRequestFrame: after the hello, N queries cost exactly N
// raw writes — each request frame leaves as one TLS record, not a header
// record followed by a payload record.
func TestOneWritePerRequestFrame(t *testing.T) {
	addr := scriptServer(t, func(_ int, conn net.Conn) { respondQueries(t, conn, 0) })
	var writes atomic.Int64
	dial := func(network, addr string) (net.Conn, error) {
		raw, err := net.Dial(network, addr)
		if err != nil {
			return nil, err
		}
		return countingConn{Conn: raw, writes: &writes}, nil
	}
	c, err := Dial(addr, Options{Timeout: 5 * time.Second, Dialer: dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	afterHello := writes.Load()
	const n = 10
	for i := 1; i <= n; i++ {
		if _, err := c.Query(profile.ID(i), 5); err != nil {
			t.Fatal(err)
		}
	}
	if got := writes.Load() - afterHello; got != n {
		t.Fatalf("%d queries took %d raw writes, want %d", n, got, n)
	}
}
