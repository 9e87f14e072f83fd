// Tests pinning the coalesced-write and pooled-buffer contracts of the
// hot path (DESIGN §10): every response and push frame leaves the server
// in exactly one conn.Write, and a frame handed to the writer is never
// mutated until the write completes. Both drive Server.handle directly
// over net.Pipe (servePipe) — no TLS, so a second Write could only come
// from the server's own framing, not the record layer.
package server

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/big"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"smatch/internal/broker"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

// writeCountingConn counts Write calls and can verify that the buffer
// handed to Write is not mutated while the write is "in flight" (checked
// by hashing, idling, and re-hashing before forwarding).
type writeCountingConn struct {
	net.Conn
	writes     atomic.Int64
	checkHolds bool
}

func (c *writeCountingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	if c.checkHolds {
		before := sha256.Sum256(p)
		time.Sleep(200 * time.Microsecond) // a slow peer; reuse bugs land here
		if after := sha256.Sum256(p); after != before {
			return 0, fmt.Errorf("write buffer mutated while the write was in flight")
		}
	}
	return c.Conn.Write(p)
}

// startPipeServer runs Server.handle over a net.Pipe behind the counting
// wrapper and returns the client end, past the hello. Without TLS every
// Write the server issues is one the wrapper sees.
func startPipeServer(t *testing.T, srv *Server, checkHolds bool) (*rawV2, *writeCountingConn) {
	t.Helper()
	cli, sc := net.Pipe()
	wc := &writeCountingConn{Conn: sc, checkHolds: checkHolds}
	serveConn(t, srv, wc)
	t.Cleanup(func() {
		cli.Close()
		select {
		case <-wgDone(srv):
		case <-time.After(5 * time.Second):
			t.Error("handler did not exit")
		}
	})
	return helloRaw(t, cli), wc
}

func uploadReqForTest(id uint32, bucket string, sum int64) wire.UploadReq {
	e := matchEntryForTest(id, bucket, sum)
	return wire.UploadReq{
		ID:       e.ID,
		KeyHash:  e.KeyHash,
		CtBits:   uint32(e.Chain.CtBits),
		NumAttrs: uint16(e.Chain.NumAttrs()),
		Chain:    e.Chain.Bytes(),
		Auth:     e.Auth,
	}
}

// TestSingleWritePerResponse pins the coalesced-write contract: the hello
// ack, responses and push notifications each cost exactly one conn.Write.
func TestSingleWritePerResponse(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cli, wc := startPipeServer(t, srv, false)

	// The hello ack is a pre-built frame too: one Write.
	base := wc.writes.Load()
	if base != 1 {
		t.Fatalf("hello ack took %d writes, want 1", base)
	}
	up := uploadReqForTest(1, "wc-bucket", 10)
	cli.send(1, wire.TypeUploadReq, up.Encode())
	if _, rt, _ := cli.recv(); rt != wire.TypeUploadResp {
		t.Fatalf("upload: type %d", rt)
	}
	if got := wc.writes.Load() - base; got != 1 {
		t.Fatalf("upload response took %d writes, want 1", got)
	}
	base = wc.writes.Load()

	// Three queries, three responses, three Writes.
	q := wire.QueryReq{QueryID: 9, ID: 1, TopK: 3}
	for id := uint64(2); id <= 4; id++ {
		cli.send(id, wire.TypeQueryReq, q.Encode())
		if _, rt, _ := cli.recv(); rt != wire.TypeQueryResp {
			t.Fatalf("pipelined query %d: type %d", id, rt)
		}
	}
	if got := wc.writes.Load() - base; got != 3 {
		t.Fatalf("3 pipelined responses took %d writes, want 3", got)
	}

	// Subscribe, then publish a matching upload: the subscribe ack, the
	// upload response, and the push notification are one Write each.
	base = wc.writes.Load()
	sub := wire.SubscribeReq{SubID: 7, KeyHash: []byte("wc-bucket"), CtBits: 48, NumAttrs: 1, Chain: up.Chain, MaxDist: big.NewInt(1 << 40)}
	cli.send(5, wire.TypeSubscribeReq, sub.AppendEncode(nil))
	if _, rt, _ := cli.recv(); rt != wire.TypeSubscribeResp {
		t.Fatalf("subscribe: type %d", rt)
	}
	up2 := uploadReqForTest(2, "wc-bucket", 11)
	cli.send(6, wire.TypeUploadReq, up2.Encode())
	var sawResp, sawPush bool
	for !sawResp || !sawPush {
		id, rt, payload := cli.recv()
		if wire.IsPushID(id) {
			n, err := wire.DecodeMatchNotify(payload)
			if err != nil || n.ID != profile.ID(2) {
				t.Fatalf("push: %+v err %v", n, err)
			}
			sawPush = true
		} else if rt == wire.TypeUploadResp {
			sawResp = true
		} else {
			t.Fatalf("unexpected frame id %d type %d", id, rt)
		}
	}
	if got := wc.writes.Load() - base; got != 3 {
		t.Fatalf("subscribe ack + upload resp + push took %d writes, want 3", got)
	}
}

// TestUploadRetainsNoPayloadBytes pins the payload validity window on the
// upload path: once the handler has returned, overwriting the request
// payload changes neither the stored auth a query returns, nor the auth
// of a notification still queued for a subscriber, nor the order sum the
// broker retains for the upload (a byte-identical re-upload is still
// recognized as already notified).
func TestUploadRetainsNoPayloadBytes(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t)})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := srv.broker.Subscribe(broker.Probe{KeyHash: []byte("zc-bucket"), OrderSum: big.NewInt(10), MaxDist: big.NewInt(100)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.broker.Unsubscribe(sub)
	if err := srv.Store().Upload(matchEntryForTest(2, "zc-bucket", 12)); err != nil {
		t.Fatal(err)
	}
	do := func(jt wire.MsgType, payload []byte) (wire.MsgType, []byte) {
		t.Helper()
		resp := srv.processJob(pipelineJob{id: 1, t: jt, payload: payload})
		defer putBuf(resp.buf)
		_, rt, body, err := wire.ReadFrameV2(bytes.NewReader(resp.frame))
		if err != nil {
			t.Fatal(err)
		}
		return rt, body
	}

	up := uploadReqForTest(1, "zc-bucket", 11)
	up.Auth = []byte("auth-of-user-1")
	wantAuth := bytes.Clone(up.Auth)
	payload := up.Encode()
	if rt, body := do(wire.TypeUploadReq, payload); rt != wire.TypeUploadResp {
		t.Fatalf("upload: type %d: %s", rt, body)
	}
	for i := range payload {
		payload[i] = 0xEE
	}

	q := wire.QueryReq{QueryID: 1, ID: 2, TopK: 1}
	rt, body := do(wire.TypeQueryReq, q.Encode())
	if rt != wire.TypeQueryResp {
		t.Fatalf("query: type %d: %s", rt, body)
	}
	qr, err := wire.DecodeQueryResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 1 || qr.Results[0].ID != 1 || !bytes.Equal(qr.Results[0].Auth, wantAuth) {
		t.Fatalf("query after the payload was overwritten: %+v, want user 1 with auth %q", qr.Results, wantAuth)
	}
	n, ok := sub.Pop()
	if !ok || n.Event != broker.EventMatch || n.ID != 1 || !bytes.Equal(n.Auth, wantAuth) {
		t.Fatalf("queued notification after the payload was overwritten: %+v (ok %v), want a match of user 1 with auth %q", n, ok, wantAuth)
	}

	if rt, body := do(wire.TypeUploadReq, up.Encode()); rt != wire.TypeUploadResp {
		t.Fatalf("re-upload: type %d: %s", rt, body)
	}
	if n, ok := sub.Pop(); ok {
		t.Fatalf("identical re-upload notified again (%+v): the broker's retained order sum changed", n)
	}
}

// TestPooledFrameStableUntilWritten floods a pipelined connection with
// concurrent queries while the conn asserts, inside every Write, that
// the frame bytes do not change while the write is in flight — the
// regression test for releasing a pooled response buffer before its
// write completed. Responses are also decoded and checked, so a frame
// scribbled on *between* writes (a too-early pool return reused by
// another worker) fails the payload checks too.
func TestPooledFrameStableUntilWritten(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 5 * time.Second, WriteTimeout: 5 * time.Second, PipelineDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 8; i++ {
		if err := srv.Store().Upload(matchEntryForTest(uint32(i), "stable-bucket", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	cli, _ := startPipeServer(t, srv, true)

	const requests = 200
	writeErr := make(chan error, 1)
	go func() {
		for id := uint64(1); id <= requests; id++ {
			q := wire.QueryReq{QueryID: id, ID: profile.ID(1 + id%8), TopK: 5}
			if err := wire.WriteFrameV2(cli.conn, id, wire.TypeQueryReq, q.Encode()); err != nil {
				writeErr <- err
				return
			}
		}
		writeErr <- nil
	}()
	seen := make(map[uint64]bool, requests)
	for len(seen) < requests {
		id, rt, payload := cli.recv()
		if rt != wire.TypeQueryResp {
			t.Fatalf("response %d: type %d (%s)", id, rt, payload)
		}
		qr, err := wire.DecodeQueryResp(payload)
		if err != nil {
			t.Fatalf("response %d undecodable: %v", id, err)
		}
		if qr.QueryID != id {
			t.Fatalf("response %d carries query ID %d — cross-request buffer bleed", id, qr.QueryID)
		}
		for _, r := range qr.Results {
			if !bytes.Equal(r.Auth, []byte{1}) {
				t.Fatalf("response %d: corrupted auth %x", id, r.Auth)
			}
		}
		if seen[id] {
			t.Fatalf("duplicate response %d", id)
		}
		seen[id] = true
	}
	if err := <-writeErr; err != nil {
		t.Fatal(err)
	}
}
