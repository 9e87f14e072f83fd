// Push-based matching wire messages: a subscription registers a standing
// encrypted probe (the same ciphertext material an upload carries, plus an
// order-sum distance threshold) and the server answers qualifying uploads
// with unsolicited TypeMatchNotify frames — "tell me when someone
// compatible appears" without re-querying.
//
// Server-initiated frames need request IDs that can never collide with a
// client's: the v2 request-ID space is split in half, clients own
// [0, PushIDBase) (the mux allocates from 1 upward) and the server owns
// [PushIDBase, 2^64) for pushes. A subscription's push frames carry
// PushID(subID), so a client can route them before decoding the payload.
package wire

import (
	"errors"
	"fmt"
	"math/big"

	"smatch/internal/chain"
	"smatch/internal/profile"
)

// PushIDBase is the start of the request-ID range reserved for
// server-initiated v2 frames. Client request IDs stay below it; push
// frames carry PushID(subID) at or above it.
const PushIDBase uint64 = 1 << 63

// PushID tags a subscription ID into the reserved server-initiated range.
func PushID(subID uint64) uint64 { return PushIDBase | subID }

// IsPushID reports whether a v2 request ID is server-initiated.
func IsPushID(id uint64) bool { return id >= PushIDBase }

// SubIDOfPush recovers the subscription ID a push frame was tagged with.
func SubIDOfPush(id uint64) uint64 { return id &^ PushIDBase }

// Notification event kinds carried by TypeMatchNotify.
const (
	// NotifyEventMatch: a profile within the subscription's threshold
	// appeared (new upload, or a re-upload that moved into range).
	NotifyEventMatch uint8 = 1
	// NotifyEventGone: a previously notified profile left the threshold
	// (removed, or re-uploaded out of range).
	NotifyEventGone uint8 = 2
)

// MaxSubMaxDist bounds the encoded threshold; order sums fit comfortably
// in a few KB even at 2048-bit ciphertext chains.
const MaxSubMaxDist = 1 << 12

// SubscribeReq registers a standing probe: the client-chosen subscription
// ID (unique per connection, below PushIDBase), the probe's bucket and
// ciphertext chain — the same material an UploadReq carries — and the
// order-sum distance threshold within which a newly uploaded profile
// triggers a notification.
type SubscribeReq struct {
	SubID    uint64
	KeyHash  []byte
	CtBits   uint32
	NumAttrs uint16
	Chain    []byte // chain.Chain.Bytes()
	MaxDist  *big.Int
}

// AppendEncode appends the encoded subscribe request to buf.
func (s *SubscribeReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(s.SubID)
	e.bytes(s.KeyHash)
	e.u32(s.CtBits)
	e.u16(s.NumAttrs)
	e.bytes(s.Chain)
	e.big(s.MaxDist)
	return e.buf
}

// DecodeSubscribeReq parses a subscribe request payload.
func DecodeSubscribeReq(payload []byte) (*SubscribeReq, error) {
	d := decoder{buf: payload}
	var s SubscribeReq
	var err error
	if s.SubID, err = d.u64(); err != nil {
		return nil, err
	}
	if IsPushID(s.SubID) {
		return nil, fmt.Errorf("wire: subscription ID %d inside the reserved push range", s.SubID)
	}
	if s.KeyHash, err = d.bytes(); err != nil {
		return nil, err
	}
	if len(s.KeyHash) == 0 {
		return nil, errors.New("wire: empty subscription key hash")
	}
	if s.CtBits, err = d.u32(); err != nil {
		return nil, err
	}
	if s.NumAttrs, err = d.u16(); err != nil {
		return nil, err
	}
	if s.Chain, err = d.bytes(); err != nil {
		return nil, err
	}
	md, err := d.bytes()
	if err != nil {
		return nil, err
	}
	if len(md) > MaxSubMaxDist {
		return nil, fmt.Errorf("wire: subscription threshold of %d bytes exceeds limit %d", len(md), MaxSubMaxDist)
	}
	if len(md) > 0 && md[0] == 0 {
		return nil, errors.New("wire: subscription threshold has a non-canonical leading zero")
	}
	s.MaxDist = new(big.Int).SetBytes(md)
	return &s, d.done()
}

// ProbeChain parses the probe's ciphertext chain, exactly as UploadReq
// parses an upload's.
func (s *SubscribeReq) ProbeChain() (*chain.Chain, error) {
	return chain.Parse(s.Chain, int(s.NumAttrs), uint(s.CtBits))
}

// SubscribeResp acknowledges a registration, echoing the client's
// subscription ID.
type SubscribeResp struct {
	SubID uint64
}

// AppendEncode appends the encoded subscribe response to buf.
func (s *SubscribeResp) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(s.SubID)
	return e.buf
}

// DecodeSubscribeResp parses a subscribe response payload.
func DecodeSubscribeResp(payload []byte) (*SubscribeResp, error) {
	d := decoder{buf: payload}
	id, err := d.u64()
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &SubscribeResp{SubID: id}, nil
}

// UnsubscribeReq cancels a standing probe; the response echoes the ID.
type UnsubscribeReq struct {
	SubID uint64
}

// AppendEncode appends the encoded unsubscribe request to buf.
func (u *UnsubscribeReq) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(u.SubID)
	return e.buf
}

// DecodeUnsubscribeReq parses an unsubscribe request payload.
func DecodeUnsubscribeReq(payload []byte) (*UnsubscribeReq, error) {
	d := decoder{buf: payload}
	id, err := d.u64()
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &UnsubscribeReq{SubID: id}, nil
}

// UnsubscribeResp acknowledges a cancellation.
type UnsubscribeResp struct {
	SubID uint64
}

// AppendEncode appends the encoded unsubscribe response to buf.
func (u *UnsubscribeResp) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(u.SubID)
	return e.buf
}

// DecodeUnsubscribeResp parses an unsubscribe response payload.
func DecodeUnsubscribeResp(payload []byte) (*UnsubscribeResp, error) {
	d := decoder{buf: payload}
	id, err := d.u64()
	if err != nil {
		return nil, err
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	return &UnsubscribeResp{SubID: id}, nil
}

// MatchNotify is one unsolicited push: profile ID (the matched user's
// auth blob rides along so the subscriber can run Vf, exactly like a
// query result). Seq is the per-subscription generation number — strictly
// increasing, assigned before queueing, so a receiver can detect gaps —
// and Dropped is the cumulative count of notifications this subscription
// has dropped under queue pressure, so every gap is accounted for.
type MatchNotify struct {
	SubID   uint64
	Seq     uint64
	Dropped uint64
	Event   uint8
	ID      profile.ID
	Auth    []byte
}

// AppendEncode appends the encoded notification to buf — the push pump's
// per-frame path, so fan-out to many subscribers reuses one buffer.
func (n *MatchNotify) AppendEncode(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(n.SubID)
	e.u64(n.Seq)
	e.u64(n.Dropped)
	e.buf = append(e.buf, n.Event)
	e.u32(uint32(n.ID))
	e.bytes(n.Auth)
	return e.buf
}

// DecodeMatchNotify parses a notification payload.
func DecodeMatchNotify(payload []byte) (*MatchNotify, error) {
	d := decoder{buf: payload}
	var n MatchNotify
	var err error
	if n.SubID, err = d.u64(); err != nil {
		return nil, err
	}
	if IsPushID(n.SubID) {
		return nil, fmt.Errorf("wire: notify subscription ID %d inside the reserved push range", n.SubID)
	}
	if n.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	if n.Dropped, err = d.u64(); err != nil {
		return nil, err
	}
	if len(d.buf) < 1 {
		return nil, ErrTruncated
	}
	n.Event = d.buf[0]
	d.buf = d.buf[1:]
	if n.Event != NotifyEventMatch && n.Event != NotifyEventGone {
		return nil, fmt.Errorf("wire: unknown notify event %d", n.Event)
	}
	id, err := d.u32()
	if err != nil {
		return nil, err
	}
	n.ID = profile.ID(id)
	if n.Auth, err = d.bytes(); err != nil {
		return nil, err
	}
	return &n, d.done()
}
