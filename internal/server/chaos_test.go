package server

import (
	"context"
	"encoding/binary"
	"io"
	"math/big"
	"net"
	"testing"
	"time"

	"smatch/internal/client"
	"smatch/internal/oprf"
	"smatch/internal/wire"
)

func TestServerSurvivesGarbageFrame(t *testing.T) {
	addr, _ := startServer(t)
	raw := dialRawV2(t, addr)
	// A frame with an unknown type gets an error frame back under its own
	// request ID, and the server keeps serving other clients.
	raw.send(9, wire.MsgType(200), []byte("junk"))
	if id, typ, _ := raw.recv(); id != 9 || typ != wire.TypeError {
		t.Errorf("got frame id %d type %d, want error frame for request 9", id, typ)
	}
	good := dial(t, addr)
	if _, err := good.OPRFPublicKey(); err != nil {
		t.Errorf("server unhealthy after garbage frame: %v", err)
	}
}

// TestRetiredOPRFTypeRefused: type 5 carried the single-element OPRF
// request before every OPRF round became a batch. A frame of that type, in
// its old encoding, gets exactly one error frame under its request ID, and
// the connection stays usable: the next frame, a batch of one, is
// evaluated.
func TestRetiredOPRFTypeRefused(t *testing.T) {
	addr, _ := startServer(t)
	raw := dialRawV2(t, addr)
	x := big.NewInt(0xbeef)
	raw.send(7, wire.MsgType(5), []byte{0, 0, 0, 2, 0xbe, 0xef})
	if id, typ, _ := raw.recv(); id != 7 || typ != wire.TypeError {
		t.Fatalf("got frame id %d type %d, want an error frame for request 7", id, typ)
	}
	raw.send(8, wire.TypeOPRFBatchReq, (&wire.OPRFBatchReq{Xs: []*big.Int{x}}).AppendEncode(nil))
	id, typ, payload := raw.recv()
	if id != 8 || typ != wire.TypeOPRFBatchResp {
		t.Fatalf("got frame id %d type %d, want the OPRF batch response for request 8", id, typ)
	}
	resp, err := wire.DecodeOPRFBatchResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	want, err := testOPRF(t).Evaluate(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Ys) != 1 || resp.Ys[0].Cmp(want) != 0 {
		t.Error("batch of one disagrees with direct evaluation")
	}
}

func TestServerDropsOversizedHeader(t *testing.T) {
	addr, _ := startServer(t)
	// Claim a 4 GiB payload, as the first frame and again after the hello:
	// the server must drop the connection, not allocate.
	hdr := make([]byte, wire.FrameHeaderLenV2)
	binary.BigEndian.PutUint32(hdr[:4], 0xffffffff)
	hdr[4] = byte(wire.TypeUploadReq)
	for _, conn := range []net.Conn{dialRawTLS(t, addr), dialRawV2(t, addr).conn} {
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		if _, err := io.ReadAll(conn); err != nil && err != io.EOF {
			// Any outcome but a hang is acceptable; typical is clean close.
			t.Logf("connection ended with %v", err)
		}
	}
	// Server still healthy for others.
	good := dial(t, addr)
	if _, err := good.OPRFPublicKey(); err != nil {
		t.Errorf("server unhealthy after oversized header: %v", err)
	}
}

// TestFirstFrameLengthBounded pins the pre-hello read bound: a peer that
// has not said hello, claims a 16 MiB payload and sends none of it is
// dropped at once and counted in errors. The server neither allocates
// the payload nor waits ReadTimeout for it.
func TestFirstFrameLengthBounded(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	cli := servePipe(t, srv)
	hdr := make([]byte, wire.FrameHeaderLenV2)
	binary.BigEndian.PutUint32(hdr[:4], wire.MaxFrameSize)
	hdr[4] = byte(wire.TypeHello)
	start := time.Now()
	if _, err := cli.Write(hdr); err != nil {
		t.Fatal(err)
	}
	cli.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := cli.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read %d bytes, err %v; want the server to close the connection", n, err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("connection closed after %v, want within 1s", d)
	}
	if got := srv.Metrics().Errors.Load(); got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
}

func TestServerSurvivesMidFrameDisconnect(t *testing.T) {
	addr, _ := startServer(t)
	// Write half a frame header and slam the connection, before the hello
	// and after it.
	for _, conn := range []net.Conn{dialRawTLS(t, addr), dialRawV2(t, addr).conn} {
		if _, err := conn.Write([]byte{0x00, 0x00}); err != nil {
			t.Fatal(err)
		}
		conn.Close()
	}
	good := dial(t, addr)
	if _, err := good.OPRFPublicKey(); err != nil {
		t.Errorf("server unhealthy after mid-frame disconnect: %v", err)
	}
}

func TestServerSurvivesMalformedPayload(t *testing.T) {
	addr, _ := startServer(t)
	raw := dialRawV2(t, addr)
	// Valid type, garbage payload: decode error -> error frame, not a
	// crash or silent drop.
	raw.send(1, wire.TypeUploadReq, []byte{1, 2, 3})
	if _, typ, _ := raw.recv(); typ != wire.TypeError {
		t.Errorf("got type %d, want error frame", typ)
	}
}

func TestOPRFBatchOverNetwork(t *testing.T) {
	addr, _ := startServer(t)
	conn := dial(t, addr)
	srv := testOPRF(t)
	pk := srv.PublicKey()

	inputs := [][]byte{[]byte("k1"), []byte("k2"), []byte("k3")}
	viaNet, err := oprf.EvalBatch(pk, conn, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, in := range inputs {
		local, err := oprf.Eval(pk, srv, in)
		if err != nil {
			t.Fatal(err)
		}
		if string(viaNet[i]) != string(local) {
			t.Errorf("network batch output %d diverges from local", i)
		}
	}
}

// TestOPRFBatchRejectsOversize checks the client-side guard rail: a batch
// over wire.MaxOPRFBatch never hits the network, and a max-size batch is
// evaluated.
func TestOPRFBatchRejectsOversize(t *testing.T) {
	addr, srv := startServer(t)
	conn := dial(t, addr)
	xs := make([]*big.Int, wire.MaxOPRFBatch+1)
	for i := range xs {
		xs[i] = big.NewInt(int64(i + 2))
	}
	if _, err := conn.EvaluateBatch(xs); err == nil {
		t.Errorf("%d-element batch accepted (cap is %d)", len(xs), wire.MaxOPRFBatch)
	}
	if n := srv.Metrics().OPRFEvals.Load(); n != 0 {
		t.Errorf("oversized batch reached the server: %d OPRF frames handled", n)
	}
	ys, err := conn.EvaluateBatch(xs[:wire.MaxOPRFBatch])
	if err != nil {
		t.Fatalf("max-size batch: %v", err)
	}
	if len(ys) != wire.MaxOPRFBatch {
		t.Errorf("got %d evaluations, want %d", len(ys), wire.MaxOPRFBatch)
	}
	if n := srv.Metrics().OPRFEvals.Load(); n != 1 {
		t.Errorf("server handled %d OPRF frames, want 1", n)
	}
}

func TestConnectionTimeoutReaped(t *testing.T) {
	// A server with a very short read timeout drops idle connections but
	// keeps accepting new ones.
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(context.Background()) }()

	idle := dialRawTLS(t, a.String())
	time.Sleep(400 * time.Millisecond)
	// The idle connection should be closed by now.
	idle.SetReadDeadline(time.Now().Add(time.Second))
	if _, _, _, err := wire.ReadFrameV2(idle); err == nil {
		t.Error("idle connection still alive past read timeout")
	}
	// New connections still served.
	fresh, err := client.Dial(a.String(), client.Options{Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.OPRFPublicKey(); err != nil {
		t.Errorf("fresh connection failed: %v", err)
	}
	srv.Close()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Error("server did not stop")
	}
}

func TestMaxDistanceQueryOverNetwork(t *testing.T) {
	addr, srv := startServer(t)
	conn := dial(t, addr)

	// Hand-rolled entries give exact control over order sums.
	up := func(id uint32, keyHash string, sum int64) {
		err := srv.Store().Upload(matchEntryForTest(id, keyHash, sum))
		if err != nil {
			t.Fatal(err)
		}
	}
	up(1, "b", 100)
	up(2, "b", 104)
	up(3, "b", 120)
	up(4, "other", 101)

	results, err := conn.QueryMaxDistance(1, big.NewInt(10))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].ID != 2 {
		t.Fatalf("max-distance results = %+v, want only user 2", results)
	}
	if _, err := conn.QueryMaxDistance(1, nil); err == nil {
		t.Error("nil bound accepted")
	}
}
