// Byte-level client for protocol tests: a bare connection (TLS to a
// served address, or one end of a net.Pipe handed to Server.handle) that
// says hello and then speaks raw v2 frames, so a test controls exactly
// which bytes the server sees and reads exactly what it answers.
package server

import (
	"crypto/tls"
	"net"
	"testing"

	"smatch/internal/wire"
)

// dialRawTLS opens a bare TLS connection: nothing sent yet, not even the
// hello.
func dialRawTLS(t *testing.T, addr string) *tls.Conn {
	t.Helper()
	conn, err := tls.Dial("tcp", addr, &tls.Config{InsecureSkipVerify: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// rawV2 is a connection past the hello exchange. send and recv fail the
// test on any transport error; a test that expects one uses conn itself.
type rawV2 struct {
	t    *testing.T
	conn net.Conn
}

// helloRaw performs the hello exchange on conn under request ID 0.
func helloRaw(t *testing.T, conn net.Conn) *rawV2 {
	t.Helper()
	hello := wire.Hello{Version: wire.ProtocolV2, Depth: 8}
	if err := wire.WriteFrameV2(conn, 0, wire.TypeHello, hello.AppendEncode(nil)); err != nil {
		t.Fatal(err)
	}
	id, rt, _, err := wire.ReadFrameV2(conn)
	if err != nil || id != 0 || rt != wire.TypeHelloResp {
		t.Fatalf("hello exchange: ID %d, type %d, err %v", id, rt, err)
	}
	return &rawV2{t: t, conn: conn}
}

func dialRawV2(t *testing.T, addr string) *rawV2 {
	t.Helper()
	return helloRaw(t, dialRawTLS(t, addr))
}

func (r *rawV2) send(id uint64, typ wire.MsgType, payload []byte) {
	r.t.Helper()
	if err := wire.WriteFrameV2(r.conn, id, typ, payload); err != nil {
		r.t.Fatalf("sending frame %d (type %d): %v", id, typ, err)
	}
}

func (r *rawV2) recv() (id uint64, typ wire.MsgType, payload []byte) {
	r.t.Helper()
	id, typ, payload, err := wire.ReadFrameV2(r.conn)
	if err != nil {
		r.t.Fatalf("reading frame: %v", err)
	}
	return id, typ, payload
}

// serveConn registers sc as a tracked connection and runs the handler on
// it, exactly as Serve would for an accepted conn.
func serveConn(t *testing.T, srv *Server, sc net.Conn) {
	t.Helper()
	st := srv.track(sc)
	if st == nil {
		t.Fatal("server already closed")
	}
	srv.wg.Add(1)
	go func() {
		defer srv.wg.Done()
		srv.handle(sc, st)
	}()
}

// servePipe serves one end of a net.Pipe and returns the other — no hello
// sent yet. net.Pipe has no buffering, so "the peer stopped reading"
// stalls a write immediately instead of after an unpredictable amount of
// kernel buffer.
func servePipe(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	cli, sc := net.Pipe()
	serveConn(t, srv, sc)
	t.Cleanup(func() { cli.Close() })
	return cli
}
