// Push subscriptions: the client registers a standing encrypted probe —
// the same ciphertext material an upload carries, plus an order-sum
// distance threshold — and the server pushes TypeMatchNotify frames when
// a newly uploaded profile lands within the threshold, without the
// client re-querying.
//
// Pushes arrive as unsolicited frames whose request IDs sit in the
// reserved [wire.PushIDBase, 2^64) range, and the mux reader routes them
// to the subscription's channel instead of a pending request.
//
// A subscription is connection-scoped: if the session breaks (I/O error,
// desync, Close), the server side died with the conn and the channel is
// closed — re-subscribing after a redial is the caller's decision, since
// a fresh subscription starts from the current store state.
package client

import (
	"errors"
	"fmt"
	"math/big"
	"sync"
	"sync/atomic"

	"smatch/internal/match"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

// Notification event kinds, mirroring the wire constants.
const (
	// NotifyMatch: a profile within the subscription's threshold appeared.
	NotifyMatch = wire.NotifyEventMatch
	// NotifyGone: a previously notified profile left the threshold.
	NotifyGone = wire.NotifyEventGone
)

// Notification is one delivered push. Seq is the per-subscription
// generation number (strictly increasing; a gap means the server dropped
// notifications under queue pressure) and Dropped is the server's
// cumulative drop count for this subscription, so every gap is
// accounted for.
type Notification struct {
	Seq     uint64
	Dropped uint64
	Event   uint8
	ID      profile.ID
	Auth    []byte
}

// Subscription is a registered standing probe. Notifications arrive on C;
// the channel closes when the subscription ends — Unsubscribe, session
// failure, or Close. Receivers that fall behind the channel buffer lose
// the newest notifications (counted by LocalDropped); the server-side
// queue has its own bound, surfaced in Notification.Dropped.
type Subscription struct {
	// C delivers notifications. Closed when the subscription ends.
	C <-chan Notification

	conn *Conn
	mux  *muxSession
	id   uint64

	mu     sync.Mutex
	ch     chan Notification
	closed bool

	localDrops atomic.Uint64
}

// ID reports the subscription's connection-scoped identifier (the one
// echoed in SubscribeResp and carried by every push frame).
func (s *Subscription) ID() uint64 { return s.id }

// LocalDropped reports how many notifications were discarded client-side
// because C's buffer was full.
func (s *Subscription) LocalDropped() uint64 { return s.localDrops.Load() }

// deliver routes one push to the channel without ever blocking the mux
// reader: a full buffer drops the notification (counted).
func (s *Subscription) deliver(n Notification) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.ch <- n:
	default:
		s.localDrops.Add(1)
	}
}

// closeChan ends delivery. Idempotent; safe against a concurrent deliver.
func (s *Subscription) closeChan() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
	s.mu.Unlock()
}

// Unsubscribe cancels the standing probe on the server and closes C. The
// channel is closed even when the cancel request fails — a subscription
// whose session broke is already dead server-side.
func (s *Subscription) Unsubscribe() error {
	s.mux.removeSub(s.id)
	defer s.closeChan()
	req := wire.UnsubscribeReq{SubID: s.id}
	payload, err := s.mux.do(wire.TypeUnsubscribeReq, req.AppendEncode(nil), wire.TypeUnsubscribeResp, s.conn.opts.Timeout)
	if err != nil {
		return err
	}
	resp, err := wire.DecodeUnsubscribeResp(payload)
	if err != nil {
		return err
	}
	if resp.SubID != s.id {
		s.conn.markBroken()
		return fmt.Errorf("client: unsubscribe ack for %d, want %d", resp.SubID, s.id)
	}
	return nil
}

// Subscribe registers a standing probe built from the same encrypted
// material an upload carries (e.KeyHash and e.Chain; ID and Auth are
// ignored): the server pushes a notification whenever a profile in the
// probe's bucket lands within maxDist of the probe's order sum. buffer
// sizes the notification channel; zero means 64.
//
// Subscribe is never retried automatically: it must complete on the same
// session that will deliver the pushes (a silent redial would leave the
// registration on a dead connection). On a connection-level failure the
// caller re-subscribes after the next request redials.
func (c *Conn) Subscribe(e match.Entry, maxDist *big.Int, buffer int) (*Subscription, error) {
	if maxDist == nil || maxDist.Sign() < 0 {
		return nil, errors.New("client: nil or negative subscription threshold")
	}
	if len(e.KeyHash) == 0 {
		return nil, errors.New("client: subscription probe needs a key hash")
	}
	if e.Chain == nil || e.Chain.NumAttrs() == 0 {
		return nil, errors.New("client: subscription probe needs a ciphertext chain")
	}
	if buffer <= 0 {
		buffer = 64
	}
	mux, err := c.getSession()
	if err != nil {
		return nil, err
	}
	sub := &Subscription{
		conn: c,
		mux:  mux,
		id:   c.subID.Add(1),
		ch:   make(chan Notification, buffer),
	}
	sub.C = sub.ch
	// Pre-register before sending: a qualifying upload racing the
	// SubscribeResp can push before the ack arrives, and the reader must
	// already know where to route it.
	if err := mux.addSub(sub); err != nil {
		return nil, err
	}
	req := wire.SubscribeReq{
		SubID:    sub.id,
		KeyHash:  e.KeyHash,
		CtBits:   uint32(e.Chain.CtBits),
		NumAttrs: uint16(e.Chain.NumAttrs()),
		Chain:    e.Chain.Bytes(),
		MaxDist:  maxDist,
	}
	payload, err := mux.do(wire.TypeSubscribeReq, req.AppendEncode(nil), wire.TypeSubscribeResp, c.opts.Timeout)
	if err != nil {
		mux.removeSub(sub.id)
		sub.closeChan()
		return nil, err
	}
	resp, err := wire.DecodeSubscribeResp(payload)
	if err == nil && resp.SubID != sub.id {
		err = fmt.Errorf("client: subscribe ack for %d, want %d", resp.SubID, sub.id)
		c.markBroken()
	}
	if err != nil {
		mux.removeSub(sub.id)
		sub.closeChan()
		return nil, err
	}
	return sub, nil
}
