// Push delivery: every connection owns a connPush — the conn-local
// subscription table plus a pump goroutine that drains the broker's
// bounded per-subscription queues and writes TypeMatchNotify frames
// through the connection's single-writer / write-deadline choke point (a
// mutex shared with the response writer, so a push can never interleave
// bytes with a response). The pump is also the connection's graceful
// close path (requestDrain), so it starts when the connection is
// accepted, before the hello.
//
// Subscriptions are conn-scoped by construction: they are registered by
// the connection's reader, keyed by the client-chosen sub ID, delivered
// only on this connection, and torn down when the connection ends. A
// connection that never completes the hello never reaches the reader, so
// it can neither subscribe nor receive a push.
package server

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"smatch/internal/broker"
	"smatch/internal/wire"
)

// connPush carries one connection's subscription state and push-delivery
// machinery.
type connPush struct {
	s    *Server
	conn net.Conn

	// writeMu is the connection's single-writer choke point: the response
	// writer and the push pump both serialize frame writes through it.
	writeMu sync.Mutex
	// notifyBuf is the grow-only frame buffer every push on this conn is
	// built in; guarded by writeMu, so fan-out to a busy subscriber
	// reuses one allocation across the whole stream of notifications.
	notifyBuf []byte
	// writeFailed latches the first torn write; after it, nobody writes
	// (the conn is closed and both writer and pump only drain).
	writeFailed atomic.Bool

	wake  chan struct{} // 1-buffered: queued notifications are waiting
	drain chan struct{} // 1-buffered: flush pending pushes, then close
	stop  chan struct{} // closed at teardown: exit without touching conn
	done  chan struct{} // closed when the pump goroutine exits

	mu     sync.Mutex
	subs   map[uint64]*broker.Sub // client-chosen sub ID -> registration
	remote map[uint64]func()      // client-chosen sub ID -> remote cancel
}

func newConnPush(s *Server, conn net.Conn) *connPush {
	p := &connPush{
		s:      s,
		conn:   conn,
		wake:   make(chan struct{}, 1),
		drain:  make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
		subs:   make(map[uint64]*broker.Sub),
		remote: make(map[uint64]func()),
	}
	go p.run()
	return p
}

// wakeFn is the broker's non-blocking enqueue signal.
func (p *connPush) wakeFn() {
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// requestDrain asks the pump to flush pending notifications and close the
// connection — the graceful-drain path. Never blocks; safe after
// teardown; repeated signals coalesce.
func (p *connPush) requestDrain() {
	select {
	case p.drain <- struct{}{}:
	default:
	}
}

// hasSubs reports whether the connection currently holds any live
// subscriptions; the pipelined reader uses it to keep an idle subscriber
// alive across read-deadline expiries.
func (p *connPush) hasSubs() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.subs)+len(p.remote) > 0
}

// teardown ends the pump and deregisters every subscription. Called once
// when the connection's handler exits; subscriptions die with their conn.
func (p *connPush) teardown() {
	close(p.stop)
	<-p.done
	p.mu.Lock()
	subs := p.subs
	remote := p.remote
	p.subs = nil
	p.remote = nil
	p.mu.Unlock()
	for _, sub := range subs {
		p.s.broker.Unsubscribe(sub)
	}
	for _, cancel := range remote {
		cancel()
	}
}

// run is the pump: park until notifications queue up, then pop and write
// them. On drain it performs a final flush and closes the connection so
// the closing conn's subscribers see everything queued up to the drain
// boundary (conns_drained counts it, like a drained response path).
func (p *connPush) run() {
	defer close(p.done)
	for {
		select {
		case <-p.wake:
			p.flush()
		case <-p.drain:
			p.flush()
			p.s.metrics.ConnsDrained.Add(1)
			p.conn.Close()
			return
		case <-p.stop:
			return
		}
	}
}

// flush pops every queued notification across this conn's subscriptions
// and writes the push frames. Pops use the broker's bounded queues, so a
// concurrent publisher is never blocked by the writes happening here.
func (p *connPush) flush() {
	p.mu.Lock()
	type pair struct {
		id  uint64
		sub *broker.Sub
	}
	snapshot := make([]pair, 0, len(p.subs))
	for id, sub := range p.subs {
		snapshot = append(snapshot, pair{id, sub})
	}
	p.mu.Unlock()
	for _, sp := range snapshot {
		for {
			n, ok := sp.sub.Pop()
			if !ok {
				break
			}
			if !p.writePush(sp.id, n) {
				return
			}
		}
	}
}

// writePush writes one TypeMatchNotify frame under the write choke point.
// A failed write latches writeFailed and closes the conn, mirroring the
// response writer's torn-stream handling. Returns false when the conn is
// no longer writable.
func (p *connPush) writePush(subID uint64, n broker.Notification) bool {
	return p.writeNotify(wire.MatchNotify{
		SubID:   subID,
		Seq:     n.Seq,
		Dropped: n.Dropped,
		Event:   uint8(n.Event),
		ID:      n.ID,
		Auth:    n.Auth,
	})
}

// writeNotify writes one fully formed TypeMatchNotify frame under the
// write choke point. Both delivery paths end here: the local pump
// (broker queues) and the remote relay (a router forwarding an upstream
// partition's notify stream) — the shared writeMu is what keeps relayed
// pushes from interleaving with responses or local pushes.
func (p *connPush) writeNotify(msg wire.MatchNotify) bool {
	if p.writeFailed.Load() {
		return false
	}
	p.writeMu.Lock()
	frame := wire.BeginFrameV2(p.notifyBuf[:0])
	frame = msg.AppendEncode(frame)
	err := wire.FinishFrameV2(frame, 0, wire.PushID(msg.SubID), wire.TypeMatchNotify)
	if err == nil {
		p.notifyBuf = frame
		err = p.s.writeRawFrame(p.conn, frame)
	}
	p.writeMu.Unlock()
	if err != nil {
		if p.writeFailed.CompareAndSwap(false, true) {
			p.s.cfg.Logf("server: push write: %v", err)
			p.conn.Close()
		}
		return false
	}
	p.s.metrics.NotifiesSent.Add(1)
	return true
}

// handleSubscribe registers a standing probe for this connection. Runs on
// the pipelined reader (registration is a map insert — no store access,
// no I/O), so a subscription is active before any later frame on the same
// connection is processed. payload aliases the reader's reusable buffer,
// so anything registered past this call (the broker's probe, a remote
// subscriber's request) gets copies, per DESIGN §10.
func (s *Server) handleSubscribe(p *connPush, payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeSubscribeReq(payload)
	if err != nil {
		return 0, nil, err
	}
	ch, err := req.ProbeChain()
	if err != nil {
		return 0, nil, err
	}
	if ch.NumAttrs() == 0 {
		return 0, nil, fmt.Errorf("server: empty subscription probe chain")
	}
	p.mu.Lock()
	err = p.admitLocked(req.SubID)
	p.mu.Unlock()
	if err != nil {
		return 0, nil, err
	}
	if s.cfg.RemoteSubscriber != nil {
		return s.handleRemoteSubscribe(p, req, resp)
	}
	sub, err := s.broker.Subscribe(broker.Probe{
		KeyHash:  bytes.Clone(req.KeyHash),
		OrderSum: ch.OrderSum(),
		MaxDist:  req.MaxDist,
	}, p.wakeFn)
	if err != nil {
		return 0, nil, err
	}
	p.mu.Lock()
	if err := p.admitLocked(req.SubID); err != nil {
		// Raced teardown or a concurrent registration; roll back.
		p.mu.Unlock()
		s.broker.Unsubscribe(sub)
		return 0, nil, err
	}
	p.subs[req.SubID] = sub
	p.mu.Unlock()
	ack := wire.SubscribeResp{SubID: req.SubID}
	return wire.TypeSubscribeResp, ack.AppendEncode(resp), nil
}

// admitLocked says why this connection cannot take subscription id: it
// has been torn down, it holds MaxSubsPerConn subscriptions, or id is
// already registered, locally or relayed. Caller holds mu. The subscribe
// handlers ask before registering with the broker or remote subscriber
// and again before recording the registration, since mu is not held in
// between.
func (p *connPush) admitLocked(id uint64) error {
	limit := p.s.cfg.MaxSubsPerConn
	if p.subs == nil || len(p.subs)+len(p.remote) >= limit {
		return fmt.Errorf("server: subscription limit %d reached on this connection", limit)
	}
	_, local := p.subs[id]
	_, relayed := p.remote[id]
	if local || relayed {
		return fmt.Errorf("server: subscription %d already registered on this connection", id)
	}
	return nil
}

// handleRemoteSubscribe registers the probe with the configured remote
// subscriber (a router registering on the partition that owns the
// probed bucket) and relays its notification stream onto this
// connection. The deliver callback rewrites the subscription ID to the
// client's and funnels through writeNotify, so relayed pushes share the
// same single-writer choke point as local ones.
func (s *Server) handleRemoteSubscribe(p *connPush, req *wire.SubscribeReq, resp []byte) (wire.MsgType, []byte, error) {
	subID := req.SubID
	// The remote subscriber re-sends (and may retain) the request after
	// this handler returns, but its byte fields alias the reader's
	// reusable buffer — detach them first.
	req.KeyHash = bytes.Clone(req.KeyHash)
	req.Chain = bytes.Clone(req.Chain)
	deliver := func(msg wire.MatchNotify) bool {
		msg.SubID = subID
		return p.writeNotify(msg)
	}
	cancel, err := s.cfg.RemoteSubscriber(req, deliver)
	if err != nil {
		return 0, nil, err
	}
	p.mu.Lock()
	if err := p.admitLocked(subID); err != nil {
		p.mu.Unlock()
		cancel()
		return 0, nil, err
	}
	p.remote[subID] = cancel
	p.mu.Unlock()
	ack := wire.SubscribeResp{SubID: subID}
	return wire.TypeSubscribeResp, ack.AppendEncode(resp), nil
}

// handleUnsubscribe cancels a conn-local subscription (local broker
// registration or remote relay).
func (s *Server) handleUnsubscribe(p *connPush, payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeUnsubscribeReq(payload)
	if err != nil {
		return 0, nil, err
	}
	p.mu.Lock()
	sub, ok := p.subs[req.SubID]
	if ok {
		delete(p.subs, req.SubID)
	}
	cancel, rok := p.remote[req.SubID]
	if rok {
		delete(p.remote, req.SubID)
	}
	p.mu.Unlock()
	if !ok && !rok {
		return 0, nil, fmt.Errorf("server: unknown subscription %d", req.SubID)
	}
	if ok {
		s.broker.Unsubscribe(sub)
	}
	if rok {
		cancel()
	}
	ack := wire.UnsubscribeResp{SubID: req.SubID}
	return wire.TypeUnsubscribeResp, ack.AppendEncode(resp), nil
}
