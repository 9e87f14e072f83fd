// Package wire defines the framed binary protocol between S-MATCH clients
// and the untrusted server, mirroring the paper's implementation section:
// clients talk to the server over an authenticated encrypted channel (TLS
// here, SSL sockets in the paper) and exchange profile uploads, matching
// queries Qq = <q, t, IDv>, matching results Rq = <q, t, ID1, ciph1, ...>,
// and RSA-OPRF evaluation rounds for key generation.
//
// Every frame in both directions, the opening hello exchange included, is
// a request-ID-tagged frame; v2.go has the layout. Payload encodings are
// fixed-layout binary with explicit length prefixes; every decoder rejects
// malformed input rather than guessing.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"smatch/internal/match"
	"smatch/internal/profile"
)

// MsgType identifies a frame's payload.
type MsgType uint8

// Protocol message types.
const (
	TypeUploadReq MsgType = iota + 1
	TypeUploadResp
	TypeQueryReq
	TypeQueryResp
	_ // 5: retired single-element OPRF request; every OPRF round is TypeOPRFBatchReq
	_ // 6: retired single-element OPRF response
	TypeError
	TypeOPRFKeyReq
	TypeOPRFKeyResp
	TypeOPRFBatchReq
	TypeOPRFBatchResp
	TypeRemoveReq
	TypeRemoveResp
	TypeUploadBatchReq
	TypeUploadBatchResp
	TypeHello
	TypeHelloResp
	TypeSubscribeReq
	TypeSubscribeResp
	TypeUnsubscribeReq
	TypeUnsubscribeResp
	TypeMatchNotify
	TypeReplicatePullReq
	TypeReplicatePullResp
	_ // 25: retired partition-map request; a cluster's map is fixed at startup
	_ // 26: retired partition-map response
	_ // 27: retired partition-dump request; nothing moves buckets between nodes
	_ // 28: retired partition-dump response
)

// MaxFrameSize bounds a frame payload; large enough for a 2048-bit, many-
// attribute chain with headroom, small enough to stop memory-exhaustion
// games from a malicious peer.
const MaxFrameSize = 16 << 20

// Protocol errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrameSize")
	ErrTruncated     = errors.New("wire: truncated payload")
	ErrBadType       = errors.New("wire: unknown message type")
)

// UploadReq carries message format (3): ID, h(Kup), encrypted chain, auth.
type UploadReq struct {
	ID       profile.ID
	KeyHash  []byte
	CtBits   uint32
	NumAttrs uint16
	Chain    []byte // chain.Chain.Bytes()
	Auth     []byte
}

// UploadReqOf converts a store entry to the upload request that recreates
// it. The request aliases the entry's KeyHash and Auth.
func UploadReqOf(e match.Entry) UploadReq {
	return UploadReq{
		ID:       e.ID,
		KeyHash:  e.KeyHash,
		CtBits:   uint32(e.Chain.CtBits),
		NumAttrs: uint16(e.Chain.NumAttrs()),
		Chain:    e.Chain.Bytes(),
		Auth:     e.Auth,
	}
}

// MaxUploadBatch caps the entries one batch frame may carry: large enough
// to amortize the per-frame round trip and the WAL fsync across hundreds
// of profiles, small enough that a frame stays well under MaxFrameSize
// even at 2048-bit ciphertexts and bounds the server-side work one frame
// can demand.
const MaxUploadBatch = 256

// MaxOPRFBatch caps the blinded elements one batched OPRF frame may carry.
// Multi-probe key generation needs a handful, so the cap only bounds the
// RSA work one frame can demand.
const MaxOPRFBatch = 64

// UploadBatchReq carries several upload records in one frame. The server
// validates every entry, journals and applies the valid ones, and answers
// with per-entry status — one round trip and (with the WAL enabled) one
// group-committed fsync for the whole batch.
type UploadBatchReq struct {
	Entries []UploadReq
}

// Encode serializes the batch request as a count followed by
// length-prefixed single-upload payloads (the same encoding TypeUploadReq
// uses, so the WAL journal format can be shared).
func (u *UploadBatchReq) Encode() []byte { return u.AppendEncode(nil) }

// AppendEncode appends the encoded batch request to buf. Each entry is
// encoded in place behind a backfilled length prefix — no per-entry
// temporary slice.
func (u *UploadBatchReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u16(uint16(len(u.Entries)))
	for i := range u.Entries {
		at := e.beginLen()
		e.buf = u.Entries[i].AppendEncode(e.buf)
		e.endLen(at)
	}
	return e.buf
}

// DecodeUploadBatchReq parses a batch request payload.
func DecodeUploadBatchReq(payload []byte) (*UploadBatchReq, error) {
	d := decoder{buf: payload}
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, errors.New("wire: empty upload batch")
	}
	if int(n) > MaxUploadBatch {
		return nil, fmt.Errorf("wire: upload batch of %d exceeds limit %d", n, MaxUploadBatch)
	}
	out := &UploadBatchReq{Entries: make([]UploadReq, n)}
	for i := range out.Entries {
		b, err := d.bytes()
		if err != nil {
			return nil, err
		}
		if err := out.Entries[i].decode(b); err != nil {
			return nil, fmt.Errorf("wire: batch entry %d: %w", i, err)
		}
	}
	return out, d.done()
}

// UploadBatchResp reports per-entry status for a batch upload: Status[i]
// is empty when entry i was applied, otherwise the rejection reason.
// Invalid entries do not fail the batch — the valid ones are still
// applied, exactly as if uploaded individually.
type UploadBatchResp struct {
	Status []string
}

// OK reports whether every entry was applied.
func (u *UploadBatchResp) OK() bool {
	for _, s := range u.Status {
		if s != "" {
			return false
		}
	}
	return true
}

// AppendEncode appends the encoded batch response to buf.
func (u *UploadBatchResp) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u16(uint16(len(u.Status)))
	for _, s := range u.Status {
		e.u32(uint32(len(s)))
		e.buf = append(e.buf, s...)
	}
	return e.buf
}

// DecodeUploadBatchResp parses a batch response payload.
func DecodeUploadBatchResp(payload []byte) (*UploadBatchResp, error) {
	d := decoder{buf: payload}
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxUploadBatch {
		return nil, fmt.Errorf("wire: upload batch response of %d exceeds limit %d", n, MaxUploadBatch)
	}
	out := &UploadBatchResp{Status: make([]string, n)}
	for i := range out.Status {
		b, err := d.bytes()
		if err != nil {
			return nil, err
		}
		out.Status[i] = string(b)
	}
	return out, d.done()
}

// RemoveReq asks the server to delete the user's stored record (device
// decommissioning, opt-out, or a pre-upload reset). The response carries
// no payload.
type RemoveReq struct {
	ID profile.ID
}

// Encode serializes the remove request.
func (r *RemoveReq) Encode() []byte { return r.AppendEncode(nil) }

// AppendEncode appends the encoded remove request to buf.
func (r *RemoveReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u32(uint32(r.ID))
	return e.buf
}

// DecodeRemoveReq parses a remove request payload.
func DecodeRemoveReq(payload []byte) (*RemoveReq, error) {
	d := decoder{buf: payload}
	id, err := d.u32()
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &RemoveReq{ID: profile.ID(id)}, nil
}

// QueryMode selects the server-side matching algorithm.
type QueryMode uint8

// Matching algorithms (Section VI: "any matching algorithm (e.g., kNN
// matching and MAX-distance matching)").
const (
	ModeKNN QueryMode = iota
	ModeMaxDistance
)

// QueryReq is the matching query Qq = <q, t, IDv> plus the result count
// (kNN mode) or the order-sum distance bound (MAX-distance mode).
type QueryReq struct {
	QueryID   uint64
	Timestamp int64
	ID        profile.ID
	TopK      uint16
	Mode      QueryMode
	MaxDist   *big.Int // used in ModeMaxDistance; nil otherwise
}

// QueryResp is the result message Rq = <q, t, ID1, ciph1, ..., IDk, ciphk>.
type QueryResp struct {
	QueryID   uint64
	Timestamp int64
	Results   []match.Result
}

// OPRFBatchReq carries the blinded elements of one RSA-OPRF round: one for
// a plain key derivation, several when multi-probe key generation derives
// all candidate keys in a single exchange.
type OPRFBatchReq struct {
	Xs []*big.Int
}

// AppendEncode appends the encoded batch request to buf; each element is
// filled into the buffer directly instead of through x.Bytes().
func (o *OPRFBatchReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u16(uint16(len(o.Xs)))
	for _, x := range o.Xs {
		e.big(x)
	}
	return e.buf
}

// DecodeOPRFBatchReq parses a batch request payload.
func DecodeOPRFBatchReq(payload []byte) (*OPRFBatchReq, error) {
	d := decoder{buf: payload}
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxOPRFBatch {
		return nil, fmt.Errorf("wire: OPRF batch of %d exceeds limit %d", n, MaxOPRFBatch)
	}
	out := &OPRFBatchReq{Xs: make([]*big.Int, n)}
	for i := range out.Xs {
		b, err := d.bytes()
		if err != nil {
			return nil, err
		}
		out.Xs[i] = new(big.Int).SetBytes(b)
	}
	return out, d.done()
}

// OPRFBatchResp carries the batched evaluations.
type OPRFBatchResp struct {
	Ys []*big.Int
}

// AppendEncode appends the encoded batch response to buf.
func (o *OPRFBatchResp) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u16(uint16(len(o.Ys)))
	for _, y := range o.Ys {
		e.big(y)
	}
	return e.buf
}

// DecodeOPRFBatchResp parses a batch response payload.
func DecodeOPRFBatchResp(payload []byte) (*OPRFBatchResp, error) {
	d := decoder{buf: payload}
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxOPRFBatch {
		return nil, fmt.Errorf("wire: OPRF batch response of %d exceeds limit %d", n, MaxOPRFBatch)
	}
	out := &OPRFBatchResp{Ys: make([]*big.Int, n)}
	for i := range out.Ys {
		b, err := d.bytes()
		if err != nil {
			return nil, err
		}
		out.Ys[i] = new(big.Int).SetBytes(b)
	}
	return out, d.done()
}

// OPRFKeyResp carries the server's OPRF public key (N, e) so clients can
// bootstrap without out-of-band configuration. The request has an empty
// payload.
type OPRFKeyResp struct {
	N *big.Int
	E uint32
}

// AppendEncode appends the encoded OPRF key response to buf.
func (o *OPRFKeyResp) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.big(o.N)
	e.u32(o.E)
	return e.buf
}

// DecodeOPRFKeyResp parses an OPRF key response payload.
func DecodeOPRFKeyResp(payload []byte) (*OPRFKeyResp, error) {
	d := decoder{buf: payload}
	nb, err := d.bytes()
	if err != nil {
		return nil, err
	}
	ev, err := d.u32()
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &OPRFKeyResp{N: new(big.Int).SetBytes(nb), E: ev}, nil
}

// ErrorMsg reports a server-side failure for the preceding request.
type ErrorMsg struct {
	Text string
}

// --- payload encoding helpers ---

type encoder struct{ buf []byte }

func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

type decoder struct{ buf []byte }

func (d *decoder) u16() (uint16, error) {
	if len(d.buf) < 2 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint16(d.buf)
	d.buf = d.buf[2:]
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if len(d.buf) < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if len(d.buf) < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v, nil
}

func (d *decoder) bytes() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(d.buf)) < n {
		return nil, ErrTruncated
	}
	v := d.buf[:n:n]
	d.buf = d.buf[n:]
	return v, nil
}

func (d *decoder) done() error {
	if len(d.buf) != 0 {
		return fmt.Errorf("wire: %d trailing bytes", len(d.buf))
	}
	return nil
}

// --- message codecs ---

// Encode serializes the upload request.
func (u *UploadReq) Encode() []byte { return u.AppendEncode(nil) }

// AppendEncode appends the encoded upload request to buf.
func (u *UploadReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u32(uint32(u.ID))
	e.bytes(u.KeyHash)
	e.u32(u.CtBits)
	e.u16(u.NumAttrs)
	e.bytes(u.Chain)
	e.bytes(u.Auth)
	return e.buf
}

// EncodedLen returns the length of the upload request's encoding.
func (u *UploadReq) EncodedLen() int {
	return 4 + 4 + len(u.KeyHash) + 4 + 2 + 4 + len(u.Chain) + 4 + len(u.Auth)
}

// DecodeUploadReq parses an upload request payload.
func DecodeUploadReq(payload []byte) (*UploadReq, error) {
	var u UploadReq
	if err := u.decode(payload); err != nil {
		return nil, err
	}
	return &u, nil
}

// decode parses an upload request payload into u, so a batch decodes its
// entries in place.
func (u *UploadReq) decode(payload []byte) error {
	d := decoder{buf: payload}
	id, err := d.u32()
	if err != nil {
		return err
	}
	u.ID = profile.ID(id)
	if u.KeyHash, err = d.bytes(); err != nil {
		return err
	}
	if u.CtBits, err = d.u32(); err != nil {
		return err
	}
	if u.NumAttrs, err = d.u16(); err != nil {
		return err
	}
	if u.Chain, err = d.bytes(); err != nil {
		return err
	}
	if u.Auth, err = d.bytes(); err != nil {
		return err
	}
	return d.done()
}

// Encode serializes the query request.
func (q *QueryReq) Encode() []byte { return q.AppendEncode(nil) }

// AppendEncode appends the encoded query request to buf.
func (q *QueryReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(q.QueryID)
	e.u64(uint64(q.Timestamp))
	e.u32(uint32(q.ID))
	e.u16(q.TopK)
	e.buf = append(e.buf, byte(q.Mode))
	e.big(q.MaxDist)
	return e.buf
}

// DecodeQueryReq parses a query request payload.
func DecodeQueryReq(payload []byte) (*QueryReq, error) {
	d := decoder{buf: payload}
	var q QueryReq
	var err error
	if q.QueryID, err = d.u64(); err != nil {
		return nil, err
	}
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	q.Timestamp = int64(ts)
	id, err := d.u32()
	if err != nil {
		return nil, err
	}
	q.ID = profile.ID(id)
	if q.TopK, err = d.u16(); err != nil {
		return nil, err
	}
	if len(d.buf) < 1 {
		return nil, ErrTruncated
	}
	q.Mode = QueryMode(d.buf[0])
	d.buf = d.buf[1:]
	if q.Mode != ModeKNN && q.Mode != ModeMaxDistance {
		return nil, fmt.Errorf("wire: unknown query mode %d", q.Mode)
	}
	md, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if q.Mode == ModeMaxDistance {
		q.MaxDist = new(big.Int).SetBytes(md)
	}
	return &q, d.done()
}

// AppendEncode appends the encoded query response to buf.
func (q *QueryResp) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(q.QueryID)
	e.u64(uint64(q.Timestamp))
	e.u16(uint16(len(q.Results)))
	for i := range q.Results {
		e.u32(uint32(q.Results[i].ID))
		e.bytes(q.Results[i].Auth)
	}
	return e.buf
}

// DecodeQueryResp parses a query response payload.
func DecodeQueryResp(payload []byte) (*QueryResp, error) {
	d := decoder{buf: payload}
	var q QueryResp
	var err error
	if q.QueryID, err = d.u64(); err != nil {
		return nil, err
	}
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	q.Timestamp = int64(ts)
	n, err := d.u16()
	if err != nil {
		return nil, err
	}
	q.Results = make([]match.Result, n)
	for i := range q.Results {
		id, err := d.u32()
		if err != nil {
			return nil, err
		}
		auth, err := d.bytes()
		if err != nil {
			return nil, err
		}
		q.Results[i] = match.Result{ID: profile.ID(id), Auth: auth}
	}
	return &q, d.done()
}

// AppendEncode appends the encoded error message to buf.
func (m *ErrorMsg) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u32(uint32(len(m.Text)))
	e.buf = append(e.buf, m.Text...)
	return e.buf
}

// DecodeErrorMsg parses an error payload.
func DecodeErrorMsg(payload []byte) (*ErrorMsg, error) {
	d := decoder{buf: payload}
	b, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &ErrorMsg{Text: string(b)}, nil
}
