// The pipelined envelope, the protocol's one frame format. Every frame
// carries a 64-bit request ID, so many requests can be in flight on one
// connection and responses may complete out of order; the ID, not arrival
// order, routes each response back to its caller.
//
// The hello is mandatory: a client's first frame is TypeHello and the
// server answers TypeHelloResp, both under request ID 0, which the client
// mux never allocates (it numbers requests from 1). A server closes a
// connection whose first frame is anything else, after one error frame
// that echoes that frame's ID; a client treats anything but a ProtocolV2
// ack as a failed dial.
//
// Frame layout: 4-byte big-endian payload length, 1-byte message type,
// 8-byte big-endian request ID, payload.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// ProtocolV2 is the version a Hello exchange negotiates.
const ProtocolV2 = 2

// v2HeaderSize is the fixed v2 envelope header: length + type + request ID.
const v2HeaderSize = 4 + 1 + 8

// Hello is the negotiation payload, carried by both TypeHello and
// TypeHelloResp. Version is the highest protocol version the sender
// speaks; Depth is how many requests the sender is willing to keep in
// flight per connection (the server advertises its pipeline depth, the
// client its desired concurrency — each side uses the minimum).
type Hello struct {
	Version uint16
	Depth   uint16
}

// AppendEncode appends the encoded hello payload to buf.
func (h *Hello) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u16(h.Version)
	e.u16(h.Depth)
	return e.buf
}

// DecodeHello parses a hello payload.
func DecodeHello(payload []byte) (*Hello, error) {
	d := decoder{buf: payload}
	var h Hello
	var err error
	if h.Version, err = d.u16(); err != nil {
		return nil, err
	}
	if h.Depth, err = d.u16(); err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if h.Version < ProtocolV2 {
		return nil, fmt.Errorf("wire: hello version %d below v2", h.Version)
	}
	return &h, nil
}

// WriteFrameV2 writes one pipelined frame — length, type and the request
// ID that routes the response — as a single Write, so on a *tls.Conn the
// frame is one TLS record rather than a header record and a payload
// record. It builds the frame in a fresh buffer; a hot path reuses its
// own with BeginFrameV2/FinishFrameV2 instead.
func WriteFrameV2(w io.Writer, id uint64, t MsgType, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooLarge
	}
	frame := append(BeginFrameV2(make([]byte, 0, v2HeaderSize+len(payload))), payload...)
	_ = FinishFrameV2(frame, 0, id, t) // the size was checked above
	if _, err := w.Write(frame); err != nil {
		return fmt.Errorf("wire: writing v2 frame: %w", err)
	}
	return nil
}

// ReadFrameV2 reads one pipelined frame.
func ReadFrameV2(r io.Reader) (uint64, MsgType, []byte, error) {
	return ReadFrameV2Max(r, MaxFrameSize)
}

// ReadFrameV2Max reads one pipelined frame whose payload may be at most
// limit bytes. A header that claims more fails with ErrFrameTooLarge
// before any payload byte is allocated or read.
func ReadFrameV2Max(r io.Reader, limit uint32) (uint64, MsgType, []byte, error) {
	var hdr [v2HeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n > limit {
		return 0, 0, nil, ErrFrameTooLarge
	}
	id := binary.BigEndian.Uint64(hdr[5:])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, fmt.Errorf("wire: reading v2 payload: %w", err)
	}
	return id, MsgType(hdr[4]), payload, nil
}
