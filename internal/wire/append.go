// Append-style framing: the allocation-free side of the wire package.
//
// Every message type has one encoder, AppendEncode(buf): it appends the
// encoded payload to a caller-owned buffer and returns the extended slice
// (AppendEncode(nil) for a fresh one). UploadReq, UploadBatchReq, QueryReq
// and RemoveReq also keep an Encode() wrapper, because the benchmark
// module calls it. Frames are built in place with a Begin/Finish pair:
// BeginFrameV2 reserves header space at the tail of a buffer, the payload
// is appended after it, and FinishFrameV2 backfills the header once the
// length is known — so one conn.Write (one syscall, one TLS record)
// carries the whole frame. Reads mirror that: ReadFrameV2Buf fills a
// caller-supplied grow-only buffer instead of allocating a payload per
// frame.
//
// Buffer ownership rules are documented in DESIGN §10. The short form:
// a payload returned by ReadFrameV2Buf (and everything a Decode* aliases
// out of it) is valid only until the buffer's next use, so a consumer
// that retains decoded bytes must copy them.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
)

// FrameHeaderLenV2 is the size of the header BeginFrameV2 reserves.
const FrameHeaderLenV2 = v2HeaderSize

// ensureLen returns a slice of length n backed by b when b's capacity
// allows, or by a fresh larger array otherwise. Contents are
// unspecified — callers overwrite every byte.
func ensureLen(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	c := 2 * cap(b)
	if c < n {
		c = n
	}
	if c < 512 {
		c = 512
	}
	return make([]byte, n, c)
}

// extend grows b by n bytes and returns the extended slice; the new
// bytes are unspecified and must be overwritten by the caller.
func extend(b []byte, n int) []byte {
	if cap(b)-len(b) >= n {
		return b[:len(b)+n]
	}
	return append(b, make([]byte, n)...)
}

// BeginFrameV2 reserves a v2 frame header at the tail of buf. Append the
// payload after it, then call FinishFrameV2 with the same mark (len(buf)
// before BeginFrameV2) to backfill the header.
func BeginFrameV2(buf []byte) []byte { return extend(buf, FrameHeaderLenV2) }

// FinishFrameV2 backfills the header a BeginFrameV2 at mark reserved,
// using everything appended since as the payload.
func FinishFrameV2(buf []byte, mark int, id uint64, t MsgType) error {
	n := len(buf) - mark - FrameHeaderLenV2
	if n < 0 {
		return fmt.Errorf("wire: FinishFrameV2 before BeginFrameV2 (mark %d, len %d)", mark, len(buf))
	}
	if n > MaxFrameSize {
		return ErrFrameTooLarge
	}
	binary.BigEndian.PutUint32(buf[mark:], uint32(n))
	buf[mark+4] = byte(t)
	binary.BigEndian.PutUint64(buf[mark+5:], id)
	return nil
}

// ReadFrameV2Buf is ReadFrameV2 with a caller-supplied reusable buffer:
// the frame is read into *buf (grown in place when too small, never
// shrunk) and the returned payload aliases it. The payload — and anything
// a decoder aliases out of it — is valid only until *buf's next use.
func ReadFrameV2Buf(r io.Reader, buf *[]byte) (uint64, MsgType, []byte, error) {
	b := ensureLen(*buf, FrameHeaderLenV2)
	*buf = b
	if _, err := io.ReadFull(r, b[:FrameHeaderLenV2]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(b[:4])
	t := MsgType(b[4])
	id := binary.BigEndian.Uint64(b[5:FrameHeaderLenV2])
	if n > MaxFrameSize {
		return 0, 0, nil, ErrFrameTooLarge
	}
	b = ensureLen(b, int(n))
	*buf = b
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, 0, nil, fmt.Errorf("wire: reading v2 payload: %w", err)
	}
	return id, t, b, nil
}

// --- appending encoder extensions ---

// beginLen reserves a u32 length prefix whose value is not yet known
// (a nested encoding about to be appended in place); endLen backfills
// it with the byte count appended since.
func (e *encoder) beginLen() int {
	e.u32(0)
	return len(e.buf)
}

func (e *encoder) endLen(at int) {
	binary.BigEndian.PutUint32(e.buf[at-4:at], uint32(len(e.buf)-at))
}

// big appends a length-prefixed big-endian magnitude, byte-identical to
// bytes(x.Bytes()) but without the intermediate allocation (FillBytes
// writes into the buffer directly). nil encodes as zero: an empty
// magnitude, matching (*big.Int)(nil)-avoiding callers that substituted
// new(big.Int).
func (e *encoder) big(x *big.Int) {
	if x == nil {
		e.u32(0)
		return
	}
	n := (x.BitLen() + 7) / 8
	e.u32(uint32(n))
	off := len(e.buf)
	e.buf = extend(e.buf, n)
	x.FillBytes(e.buf[off:])
}
