// Tests and fuzz targets for the pipelined envelope: the request-ID
// framing must round-trip byte-identically, reject oversized lengths, and
// the Hello negotiation payload must reject malformed or downlevel input —
// never panic, never over-read.
package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestFrameV2RoundTrip(t *testing.T) {
	cases := []struct {
		id      uint64
		t       MsgType
		payload []byte
	}{
		{0, TypeUploadResp, nil},
		{1, TypeQueryReq, []byte{1, 2, 3}},
		{1<<64 - 1, TypeError, bytes.Repeat([]byte{0xAB}, 1024)},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, c.id, c.t, c.payload); err != nil {
			t.Fatalf("WriteFrameV2(%d): %v", c.id, err)
		}
		id, typ, payload, err := ReadFrameV2(&buf)
		if err != nil {
			t.Fatalf("ReadFrameV2(%d): %v", c.id, err)
		}
		if id != c.id || typ != c.t || !bytes.Equal(payload, c.payload) {
			t.Errorf("round trip changed frame: (%d,%d,%x) -> (%d,%d,%x)",
				c.id, c.t, c.payload, id, typ, payload)
		}
	}
}

func TestFrameV2RejectsOversize(t *testing.T) {
	if err := WriteFrameV2(io.Discard, 1, TypeQueryReq, make([]byte, MaxFrameSize+1)); err != ErrFrameTooLarge {
		t.Errorf("oversized write: err = %v, want ErrFrameTooLarge", err)
	}
	hdr := []byte{0xff, 0xff, 0xff, 0xff, byte(TypeQueryReq), 0, 0, 0, 0, 0, 0, 0, 1}
	if _, _, _, err := ReadFrameV2(bytes.NewReader(hdr)); err != ErrFrameTooLarge {
		t.Errorf("oversized read: err = %v, want ErrFrameTooLarge", err)
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{Version: ProtocolV2, Depth: 32}
	got, err := DecodeHello(h.AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	if *got != h {
		t.Errorf("round trip changed hello: %+v -> %+v", h, *got)
	}
}

func TestHelloRejectsMalformed(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		{0},
		{0, 2},             // truncated depth
		{0, 2, 0, 8, 0xFF}, // trailing byte
		{0, 1, 0, 8},       // downlevel version
		{0, 0, 0, 8},       // version zero
	} {
		if _, err := DecodeHello(bad); err == nil {
			t.Errorf("DecodeHello(%x) accepted malformed payload", bad)
		}
	}
}

func FuzzFrameV2(f *testing.F) {
	// Seeds: a valid empty frame, a valid payload frame with a high request
	// ID, a truncated header, and a length prefix pointing past the buffer.
	var ok bytes.Buffer
	_ = WriteFrameV2(&ok, 0, TypeUploadResp, nil)
	f.Add(ok.Bytes())
	ok.Reset()
	_ = WriteFrameV2(&ok, 1<<40, TypeQueryReq, []byte{1, 2, 3, 4})
	f.Add(ok.Bytes())
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0, 0, 0, 0, 0, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		id, typ, payload, err := ReadFrameV2(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted frames round-trip byte-identically.
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, id, typ, payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		id2, typ2, payload2, err := ReadFrameV2(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if id2 != id || typ2 != typ || !bytes.Equal(payload2, payload) {
			t.Fatalf("round trip changed frame: (%d,%d,%x) -> (%d,%d,%x)",
				id, typ, payload, id2, typ2, payload2)
		}
	})
}

// FuzzReadFrame fuzzes the bounded read a server runs on a connection's
// first frame, before any hello: a header claiming more than the bound is
// refused without reading past it, and an accepted frame is exactly the
// consumed prefix re-encoded.
func FuzzReadFrame(f *testing.F) {
	// Seeds: a valid empty frame, a valid payload frame, a truncated header,
	// and a length prefix pointing past the buffer.
	var ok bytes.Buffer
	_ = WriteFrameV2(&ok, 0, TypeHello, nil)
	f.Add(ok.Bytes(), uint16(1<<10))
	ok.Reset()
	_ = WriteFrameV2(&ok, 0, TypeHello, (&Hello{Version: ProtocolV2, Depth: 8}).AppendEncode(nil))
	f.Add(ok.Bytes(), uint16(1<<10))
	f.Add([]byte{0, 0, 0, 4, 1, 0, 0}, uint16(1<<10))
	f.Add([]byte{0, 0, 4, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(1<<10))

	f.Fuzz(func(t *testing.T, data []byte, limit uint16) {
		r := bytes.NewReader(data)
		id, typ, payload, err := ReadFrameV2Max(r, uint32(limit))
		if len(data) >= FrameHeaderLenV2 {
			over := binary.BigEndian.Uint32(data) > uint32(limit)
			if over != (err == ErrFrameTooLarge) {
				t.Fatalf("claim %d, bound %d: err = %v", binary.BigEndian.Uint32(data), limit, err)
			}
			if over && r.Len() != len(data)-FrameHeaderLenV2 {
				t.Fatalf("read %d bytes past a refused header", len(data)-FrameHeaderLenV2-r.Len())
			}
		}
		if err != nil {
			return
		}
		if len(payload) > int(limit) {
			t.Fatalf("accepted a %d-byte payload under bound %d", len(payload), limit)
		}
		var buf bytes.Buffer
		if err := WriteFrameV2(&buf, id, typ, payload); err != nil {
			t.Fatalf("re-encoding accepted frame: %v", err)
		}
		if consumed := data[:len(data)-r.Len()]; !bytes.Equal(buf.Bytes(), consumed) {
			t.Fatalf("re-encoded frame %x, consumed %x", buf.Bytes(), consumed)
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	h := Hello{Version: ProtocolV2, Depth: 64}
	f.Add(h.AppendEncode(nil))
	f.Add([]byte{})
	f.Add([]byte{0, 2, 0, 0})

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := DecodeHello(payload)
		if err != nil {
			return
		}
		if !bytes.Equal(got.AppendEncode(nil), payload) {
			t.Fatalf("re-encode differs from accepted payload")
		}
		// Uplevel versions decode (the peer may speak more than we do);
		// downlevel ones never do. The client's exact-version check on the
		// ack sits on top of this.
		if got.Version < ProtocolV2 {
			t.Fatalf("accepted downlevel hello version %d", got.Version)
		}
	})
}
