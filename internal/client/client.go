// Package client is the network transport for an S-MATCH user device: it
// connects to the untrusted server over TLS and speaks the internal/wire
// protocol — uploading encrypted profiles, issuing matching queries, and
// running RSA-OPRF rounds. It implements oprf.Evaluator, so a core.Client
// can derive profile keys through the network exactly as the paper's
// Android client does.
//
// Every dial opens with the hello exchange (wire.TypeHello, acked with
// wire.TypeHelloResp); a server that does not ack it is a dial error. The
// connection is then a request multiplexer: concurrent callers share it,
// each request carries a 64-bit ID, and a reader goroutine routes
// responses back by ID — so a slow query does not block an OPRF round
// behind it.
//
// The transport is resilient in the way a mobile device has to be: any
// I/O error or stream desync marks the connection broken (it is never
// reused, so an aborted response can't bleed into the next request), the
// next request transparently redials, and idempotent requests — query,
// OPRF, remove — are retried a bounded number of times with jittered
// exponential backoff. A request timeout poisons the connection only
// when the conn has been completely silent since the request started; if
// other responses kept arriving, only the one request fails (retryably)
// and every other caller keeps its connection. Uploads are not idempotent
// over this protocol (a duplicate is observable server-side), so they
// surface the error and let the caller decide.
package client

import (
	"crypto/tls"
	"errors"
	"fmt"
	"math/big"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

// ErrServer wraps error messages reported by the server.
var ErrServer = errors.New("client: server error")

// ErrClosed is returned for requests issued after Close.
var ErrClosed = errors.New("client: connection closed")

// Conn is a client connection. Safe for concurrent use: concurrent
// requests interleave on the wire, up to the negotiated window.
type Conn struct {
	addrs []string // seed list; addrs[cur] is the address in use
	cur   int      // guarded by mu; advanced on dial failover
	opts  Options

	mu     sync.Mutex
	sess   *muxSession // nil until (re)connected
	closed bool
	dialed bool // a session has existed; later dials count as reconnects

	queryID atomic.Uint64
	subID   atomic.Uint64 // subscription IDs; conn-scoped, never reused
}

// Options tune the connection.
type Options struct {
	// Timeout bounds each request round trip (and each dial + TLS
	// handshake). Zero means 30s.
	Timeout time.Duration
	// TLSConfig overrides the TLS client configuration. Nil uses
	// certificate pinning disabled (the reproduction's self-signed
	// server), matching the paper's testbed trust model.
	TLSConfig *tls.Config
	// MaxRetries bounds how many times an idempotent request (query,
	// OPRF round, remove) is re-sent after a connection-level failure,
	// each attempt on a freshly dialed connection. Uploads are never
	// retried automatically. Zero means 2; negative disables retries.
	MaxRetries int
	// RetryBackoff is the base of the jittered exponential backoff
	// between retries. Zero means 50ms.
	RetryBackoff time.Duration
	// MaxRetryBackoff caps the backoff envelope. Zero means 2s.
	MaxRetryBackoff time.Duration
	// MaxInFlight caps how many requests may be outstanding at once on
	// the connection; callers beyond the cap wait for a slot. The server
	// may negotiate it down in the hello exchange. Zero means 32.
	MaxInFlight int
	// Metrics, when non-nil, receives the client_* resilience counters
	// (broken connections, reconnects, retries) — e.g. from a load
	// generator exporting its own /metrics.
	Metrics *metrics.Registry
	// Dialer overrides the raw TCP dial; the TLS handshake still runs on
	// top of the returned conn. Chaos tests use it to inject transport
	// faults underneath TLS. Nil uses a net.Dialer with Timeout.
	Dialer func(network, addr string) (net.Conn, error)
}

func (o Options) withDefaults() Options {
	if o.Timeout == 0 {
		o.Timeout = 30 * time.Second
	}
	if o.TLSConfig == nil {
		o.TLSConfig = &tls.Config{InsecureSkipVerify: true} // #nosec G402 — see Options doc
	}
	switch {
	case o.MaxRetries == 0:
		o.MaxRetries = 2
	case o.MaxRetries < 0:
		o.MaxRetries = 0
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxRetryBackoff == 0 {
		o.MaxRetryBackoff = 2 * time.Second
	}
	if o.MaxInFlight <= 0 {
		o.MaxInFlight = 32
	}
	if o.MaxInFlight > 65535 {
		o.MaxInFlight = 65535 // the hello carries it as a uint16
	}
	return o
}

// Dial connects to an S-MATCH server and completes the hello exchange. addr
// may be a comma-separated seed list ("host1:9000,host2:9000"): the
// client uses one address at a time and fails over to the next on dial
// failure — both here and on every later redial, so the existing
// retry/backoff machinery transparently walks the seed list when its
// current node dies.
func Dial(addr string, opts Options) (*Conn, error) {
	var addrs []string
	for _, a := range strings.Split(addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return nil, errors.New("client: empty address")
	}
	c := &Conn{addrs: addrs, opts: opts.withDefaults()}
	if _, err := c.getSession(); err != nil {
		return nil, err
	}
	return c, nil
}

// dial establishes a session: TCP, TLS handshake and hello exchange, all
// under the timeout. With a multi-address seed list it tries each address
// once, starting from the one currently in use, and sticks with the first
// that completes the exchange. Called with c.mu held (from getSession),
// which is what makes reading and advancing c.cur safe.
func (c *Conn) dial() (*muxSession, error) {
	dial := c.opts.Dialer
	if dial == nil {
		d := &net.Dialer{Timeout: c.opts.Timeout}
		dial = d.Dial
	}
	var lastErr error
	for i := 0; i < len(c.addrs); i++ {
		idx := (c.cur + i) % len(c.addrs)
		sess, err := c.dialAddr(dial, c.addrs[idx])
		if err != nil {
			lastErr = fmt.Errorf("client: dial %s: %w", c.addrs[idx], err)
			continue
		}
		c.cur = idx
		return sess, nil
	}
	return nil, lastErr
}

func (c *Conn) dialAddr(dial func(network, addr string) (net.Conn, error), addr string) (*muxSession, error) {
	raw, err := dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	tc := tls.Client(raw, c.opts.TLSConfig)
	_ = tc.SetDeadline(time.Now().Add(c.opts.Timeout))
	if err := tc.Handshake(); err != nil {
		tc.Close()
		return nil, err
	}
	window, err := c.hello(tc)
	if err != nil {
		tc.Close()
		return nil, fmt.Errorf("protocol v%d hello exchange: %w", wire.ProtocolV2, err)
	}
	_ = tc.SetDeadline(time.Time{})
	return newMuxSession(tc, window, c.opts.Metrics), nil
}

// hello runs the mandatory exchange on a freshly handshaken conn and
// returns the in-flight window both sides agreed on: the client offers
// wire.ProtocolV2 and its window under request ID 0, and the server must
// ack with TypeHelloResp at exactly that version. Anything else — an
// error frame, another version, a closed connection — fails the dial of
// this address; there is no other protocol to fall back to.
func (c *Conn) hello(tc *tls.Conn) (int, error) {
	hello := wire.Hello{Version: wire.ProtocolV2, Depth: uint16(c.opts.MaxInFlight)}
	if err := wire.WriteFrameV2(tc, 0, wire.TypeHello, hello.AppendEncode(nil)); err != nil {
		return 0, fmt.Errorf("sending hello: %w", err)
	}
	_, t, payload, err := wire.ReadFrameV2(tc)
	if err != nil {
		return 0, fmt.Errorf("reading hello ack: %w", err)
	}
	if _, err := interpret(t, payload, wire.TypeHelloResp); err != nil {
		return 0, err
	}
	ack, err := wire.DecodeHello(payload)
	if err != nil {
		return 0, fmt.Errorf("bad hello ack: %w", err)
	}
	if ack.Version != wire.ProtocolV2 {
		return 0, fmt.Errorf("server acked with protocol v%d", ack.Version)
	}
	window := c.opts.MaxInFlight
	if d := int(ack.Depth); d > 0 && d < window {
		window = d
	}
	return window, nil
}

// getSession returns the live session, dialing (and negotiating the
// window) if the previous one broke or none exists yet. A session that
// breaks is discarded whole; the next request dials a replacement.
func (c *Conn) getSession() (*muxSession, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.sess != nil && !c.sess.broken() {
		return c.sess, nil
	}
	if c.sess != nil {
		c.sess.close()
		c.sess = nil
	}
	sess, err := c.dial()
	if err != nil {
		return nil, err
	}
	if c.dialed {
		if m := c.opts.Metrics; m != nil {
			m.ClientReconnects.Add(1)
		}
	}
	c.dialed = true
	c.sess = sess
	return sess, nil
}

// Close shuts the connection down; subsequent requests fail with ErrClosed.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	if c.sess != nil {
		c.sess.close()
		c.sess = nil
	}
	return nil
}

// markBroken poisons the current session from outside the round-trip
// path (e.g. a response that decodes but belongs to a different query).
func (c *Conn) markBroken() {
	c.mu.Lock()
	if c.sess != nil {
		c.sess.abandon()
	}
	c.mu.Unlock()
}

// connFailure marks an error that poisoned the session (I/O failure or
// stream desync): the conn must not be reused, and idempotent requests
// may be retried on a fresh one.
type connFailure struct{ err error }

func (e *connFailure) Error() string { return e.err.Error() }
func (e *connFailure) Unwrap() error { return e.err }

func isConnFailure(err error) bool {
	var cf *connFailure
	return errors.As(err, &cf)
}

// requestTimeout marks a request that gave up waiting on a multiplexed
// connection that is demonstrably still alive (responses to other
// requests kept arriving): the session stays usable, and idempotent
// requests may be retried on it.
type requestTimeout struct{ err error }

func (e *requestTimeout) Error() string { return e.err.Error() }
func (e *requestTimeout) Unwrap() error { return e.err }

func isRequestTimeout(err error) bool {
	var rt *requestTimeout
	return errors.As(err, &rt)
}

// backoffDelay computes the jittered delay before the n-th retry (n >= 1):
// an exponential envelope doubling per attempt, capped at max, with the
// delay drawn uniformly from [envelope/2, envelope] so synchronized
// clients spread out instead of retrying in lockstep.
func backoffDelay(n int, base, max time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	env := base
	for i := 1; i < n && env < max; i++ {
		env *= 2
	}
	if env > max {
		env = max
	}
	half := env / 2
	return half + time.Duration(rand.Int64N(int64(half)+1))
}

// Forward performs one raw request round trip: the payload is sent
// verbatim and the raw response payload returned, with server error frames
// translated. Session-poisoning failures cause a redial, with failover
// across the seed list; those and non-poisoning request timeouts are
// retried (with backoff) when the request is idempotent, while
// non-idempotent ones surface the error (the next request will redial as
// needed). Every typed request goes through it, and the cluster router
// uses it to forward already-encoded frames to partition owners, so
// forwarded bytes are exactly the client's bytes.
func (c *Conn) Forward(t wire.MsgType, payload []byte, wantType wire.MsgType, idempotent bool) ([]byte, error) {
	attempts := 1
	if idempotent {
		attempts += c.opts.MaxRetries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if m := c.opts.Metrics; m != nil {
				m.ClientRetries.Add(1)
			}
			time.Sleep(backoffDelay(attempt, c.opts.RetryBackoff, c.opts.MaxRetryBackoff))
		}
		sess, err := c.getSession()
		if err != nil {
			if errors.Is(err, ErrClosed) {
				return nil, err
			}
			lastErr = err
			continue
		}
		resp, err := sess.do(t, payload, wantType, c.opts.Timeout)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if !isConnFailure(err) && !isRequestTimeout(err) {
			return nil, err // server-reported error on a healthy stream
		}
		if !idempotent {
			return nil, err
		}
	}
	return nil, lastErr
}

// interpret translates one raw response frame: server error frames
// become ErrServer (the stream stays healthy), and a mismatched type
// means the stream is desynchronized, which poisons the session.
func interpret(respType wire.MsgType, payload []byte, wantType wire.MsgType) ([]byte, error) {
	if respType == wire.TypeError {
		msg, derr := wire.DecodeErrorMsg(payload)
		if derr != nil {
			return nil, &connFailure{fmt.Errorf("%w: undecodable error frame", ErrServer)}
		}
		return nil, fmt.Errorf("%w: %s", ErrServer, msg.Text)
	}
	if respType != wantType {
		return nil, &connFailure{fmt.Errorf("client: got message type %d, want %d", respType, wantType)}
	}
	return payload, nil
}

// muxSession is the transport behind one dialed connection: requests
// from concurrent callers are written (under a write mutex) with unique
// IDs, and a single reader goroutine routes response frames back to
// waiting callers by ID.
type muxSession struct {
	conn    *tls.Conn
	metrics *metrics.Registry
	window  chan struct{} // in-flight slots

	writeMu sync.Mutex
	wbuf    []byte // frame build buffer, reused across writes; guarded by writeMu

	mu       sync.Mutex
	pending  map[uint64]chan muxResult
	pushSubs map[uint64]*Subscription // active subscriptions by sub ID
	err      error                    // non-nil once the session is poisoned
	nextID   uint64

	// lastRead is the UnixNano of the most recent successfully read
	// frame; a timed-out request consults it to distinguish a dead
	// connection (silent since the request started → poison) from a
	// merely slow response on a live one (→ fail just this request).
	lastRead atomic.Int64

	readerDone chan struct{}
}

type muxResult struct {
	t       wire.MsgType
	payload []byte
	err     error
}

func newMuxSession(conn *tls.Conn, window int, m *metrics.Registry) *muxSession {
	s := &muxSession{
		conn:       conn,
		metrics:    m,
		window:     make(chan struct{}, window),
		pending:    make(map[uint64]chan muxResult),
		pushSubs:   make(map[uint64]*Subscription),
		readerDone: make(chan struct{}),
	}
	s.lastRead.Store(time.Now().UnixNano())
	go s.readLoop()
	return s
}

// readLoop routes every inbound frame to the caller registered under its
// request ID. It blocks without a read deadline: per-request timeouts
// live with the callers, and a server-side idle close simply ends the
// session (the next request redials). Any read error poisons the whole
// session — frames are self-delimiting, so a failed read means the
// stream can no longer be trusted.
func (s *muxSession) readLoop() {
	defer close(s.readerDone)
	for {
		id, t, payload, err := wire.ReadFrameV2(s.conn)
		if err != nil {
			s.fail(&connFailure{fmt.Errorf("client: reading response: %w", err)})
			return
		}
		s.lastRead.Store(time.Now().UnixNano())
		if wire.IsPushID(id) {
			// Server-initiated frame: route by subscription ID instead of a
			// pending request. Anything in the push range that is not a
			// well-formed notification matching its envelope ID means the
			// peer is off-protocol: poison the session.
			if t != wire.TypeMatchNotify {
				s.fail(&connFailure{fmt.Errorf("client: unexpected push frame type %d", t)})
				return
			}
			n, derr := wire.DecodeMatchNotify(payload)
			if derr != nil {
				s.fail(&connFailure{fmt.Errorf("client: bad push frame: %w", derr)})
				return
			}
			if wire.SubIDOfPush(id) != n.SubID {
				s.fail(&connFailure{fmt.Errorf("client: push frame ID %d carries subscription %d", id, n.SubID)})
				return
			}
			s.mu.Lock()
			sub := s.pushSubs[n.SubID]
			s.mu.Unlock()
			if sub != nil {
				// deliver never blocks the reader; a full channel drops.
				sub.deliver(Notification{Seq: n.Seq, Dropped: n.Dropped, Event: n.Event, ID: n.ID, Auth: n.Auth})
			}
			// An unknown sub ID is a push racing an unsubscribe; the frame
			// is complete, so the stream stays in sync.
			continue
		}
		s.mu.Lock()
		ch, ok := s.pending[id]
		if ok {
			delete(s.pending, id)
		}
		s.mu.Unlock()
		if ok {
			ch <- muxResult{t: t, payload: payload} // buffered; never blocks
		}
		// An unknown ID is a response to a request we abandoned on
		// timeout; the frame is complete, so the stream stays in sync.
	}
}

// fail poisons the session: every parked caller gets the error, future
// callers are refused, subscription channels close (their server side
// died with the conn), and the conn is closed (unblocking the reader).
func (s *muxSession) fail(err error) {
	s.mu.Lock()
	if s.err != nil {
		s.mu.Unlock()
		return
	}
	s.err = err
	parked := s.pending
	s.pending = make(map[uint64]chan muxResult)
	subs := s.pushSubs
	s.pushSubs = make(map[uint64]*Subscription)
	s.mu.Unlock()
	s.conn.Close()
	if s.metrics != nil {
		s.metrics.ClientBrokenConns.Add(1)
	}
	for _, ch := range parked {
		ch <- muxResult{err: err}
	}
	for _, sub := range subs {
		sub.closeChan()
	}
}

// addSub registers a subscription for push routing; refused once the
// session is poisoned.
func (s *muxSession) addSub(sub *Subscription) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.pushSubs[sub.id] = sub
	return nil
}

// removeSub unregisters a subscription; late pushes for its ID are
// discarded by the reader.
func (s *muxSession) removeSub(id uint64) {
	s.mu.Lock()
	delete(s.pushSubs, id)
	s.mu.Unlock()
}

// maxKeptWriteBuf caps the frame buffer a session keeps between writes,
// so one large forwarded batch does not pin its size for the session's
// life.
const maxKeptWriteBuf = 1 << 20

// writeFrame sends one request frame as a single Write — one TLS record,
// where a header-then-payload pair of writes would cost two records and
// two segments. The frame is built in the session's reusable buffer, as
// the server's writer builds its responses. The caller holds writeMu.
func (s *muxSession) writeFrame(id uint64, t wire.MsgType, payload []byte) error {
	frame := append(wire.BeginFrameV2(s.wbuf[:0]), payload...)
	if cap(frame) <= maxKeptWriteBuf {
		s.wbuf = frame
	}
	if err := wire.FinishFrameV2(frame, 0, id, t); err != nil {
		return err
	}
	if _, err := s.conn.Write(frame); err != nil {
		return fmt.Errorf("client: writing request frame: %w", err)
	}
	return nil
}

// do performs one request/response. It returns the response payload, or:
// a server-reported error (healthy stream), a *connFailure (the session
// is poisoned), or a *requestTimeout (this request gave up but the
// session remains usable).
func (s *muxSession) do(t wire.MsgType, payload []byte, wantType wire.MsgType, timeout time.Duration) ([]byte, error) {
	start := time.Now()
	// One timer bounds both waits, stopped on every return: under go.mod's
	// go 1.22 an unstopped timer (time.After's included) stays on the
	// runtime heap until it fires, a full Timeout after the request ended.
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case s.window <- struct{}{}:
	case <-s.readerDone:
		return nil, s.failure()
	case <-timer.C:
		// The in-flight window stayed full for the whole timeout. The
		// conn itself may be fine (slow server, saturated window), so
		// fail only this request.
		return nil, &requestTimeout{errors.New("client: in-flight window full")}
	}
	defer func() { <-s.window }()

	ch := make(chan muxResult, 1)
	s.mu.Lock()
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return nil, err
	}
	s.nextID++
	id := s.nextID
	s.pending[id] = ch
	s.mu.Unlock()

	s.writeMu.Lock()
	err := s.conn.SetWriteDeadline(time.Now().Add(timeout))
	if err == nil {
		err = s.writeFrame(id, t, payload)
	}
	s.writeMu.Unlock()
	if err != nil {
		s.forget(id)
		cf := &connFailure{err}
		s.fail(cf)
		return nil, cf
	}

	// The response wait gets the full timeout again. If the timer fired
	// while the select above picked the window slot, drain the stale tick.
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	timer.Reset(timeout)
	select {
	case res := <-ch:
		if res.err != nil {
			return nil, res.err
		}
		return interpret(res.t, res.payload, wantType)
	case <-timer.C:
		s.forget(id)
		if s.lastRead.Load() < start.UnixNano() {
			// Not one frame since before this request began: the
			// connection is dead, not slow.
			cf := &connFailure{errors.New("client: request timed out on a silent connection")}
			s.fail(cf)
			return nil, cf
		}
		return nil, &requestTimeout{errors.New("client: request timed out")}
	}
}

// forget unregisters a request that is no longer waiting; a late
// response for its ID will be discarded by the reader.
func (s *muxSession) forget(id uint64) {
	s.mu.Lock()
	delete(s.pending, id)
	s.mu.Unlock()
}

func (s *muxSession) failure() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	return &connFailure{errors.New("client: connection broken")}
}

// abandon poisons the session from outside the round-trip path.
func (s *muxSession) abandon() {
	s.fail(&connFailure{errors.New("client: connection abandoned after desync")})
}

func (s *muxSession) broken() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err != nil
}

func (s *muxSession) close() {
	s.conn.Close() // reader exits and fails any parked callers
	<-s.readerDone
}

// Upload sends an encrypted profile record to the server. Uploads are not
// retried automatically: a timeout leaves it unknown whether the server
// applied the mutation, so the error is surfaced to the caller (the
// connection itself recovers — the next request redials).
func (c *Conn) Upload(e match.Entry) error {
	req := wire.UploadReqOf(e)
	_, err := c.Forward(wire.TypeUploadReq, req.AppendEncode(nil), wire.TypeUploadResp, false)
	return err
}

// ErrBatchRejected reports a batch upload where the server rejected at
// least one entry; the per-entry reasons are in UploadBatchResult.
var ErrBatchRejected = errors.New("client: batch entries rejected")

// UploadBatch sends up to wire.MaxUploadBatch encrypted profile records in
// one frame: one round trip and, on a WAL-backed server, one
// group-committed fsync for the whole batch. Like Upload it is never
// retried automatically. Status[i] is empty when entry i was applied; if
// any entry was rejected the error wraps ErrBatchRejected and the returned
// statuses say why, entry by entry (the accepted entries are still
// applied).
func (c *Conn) UploadBatch(entries []match.Entry) ([]string, error) {
	if len(entries) == 0 {
		return nil, errors.New("client: empty upload batch")
	}
	if len(entries) > wire.MaxUploadBatch {
		return nil, fmt.Errorf("client: upload batch of %d exceeds limit %d", len(entries), wire.MaxUploadBatch)
	}
	req := wire.UploadBatchReq{Entries: make([]wire.UploadReq, len(entries))}
	for i, e := range entries {
		req.Entries[i] = wire.UploadReqOf(e)
	}
	payload, err := c.Forward(wire.TypeUploadBatchReq, req.AppendEncode(nil), wire.TypeUploadBatchResp, false)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeUploadBatchResp(payload)
	if err != nil {
		return nil, err
	}
	if len(resp.Status) != len(entries) {
		c.markBroken()
		return nil, fmt.Errorf("client: batch returned %d statuses for %d entries", len(resp.Status), len(entries))
	}
	if !resp.OK() {
		rejected := 0
		for _, s := range resp.Status {
			if s != "" {
				rejected++
			}
		}
		return resp.Status, fmt.Errorf("%w: %d of %d", ErrBatchRejected, rejected, len(entries))
	}
	return resp.Status, nil
}

// Remove deletes the user's stored record from the server (opt-out or
// device decommissioning). Removal is idempotent (removing an absent user
// is an application-level error, not a duplicated mutation), so it is
// retried after connection failures.
func (c *Conn) Remove(id profile.ID) error {
	req := wire.RemoveReq{ID: id}
	_, err := c.Forward(wire.TypeRemoveReq, req.AppendEncode(nil), wire.TypeRemoveResp, true)
	return err
}

// Query issues a matching query for the given user and result count.
func (c *Conn) Query(id profile.ID, topK int) ([]match.Result, error) {
	if topK < 1 || topK > 65535 {
		return nil, fmt.Errorf("client: topK %d out of range", topK)
	}
	return c.query(wire.QueryReq{ID: id, TopK: uint16(topK)})
}

// QueryMaxDistance issues a MAX-distance matching query: every same-bucket
// user within the given order-sum distance bound (the paper's other
// matching algorithm). The server caps oversized result sets at its
// configured maximum.
func (c *Conn) QueryMaxDistance(id profile.ID, maxDist *big.Int) ([]match.Result, error) {
	if maxDist == nil || maxDist.Sign() < 0 {
		return nil, errors.New("client: nil or negative distance bound")
	}
	return c.query(wire.QueryReq{ID: id, Mode: wire.ModeMaxDistance, MaxDist: maxDist})
}

// query stamps req with a fresh query ID and the time, sends it, and
// checks that the answer is for it: another query's ID means the stream
// is out of step, so the connection is dropped.
func (c *Conn) query(req wire.QueryReq) ([]match.Result, error) {
	req.QueryID = c.queryID.Add(1)
	req.Timestamp = time.Now().Unix()
	payload, err := c.Forward(wire.TypeQueryReq, req.AppendEncode(nil), wire.TypeQueryResp, true)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeQueryResp(payload)
	if err != nil {
		return nil, err
	}
	if resp.QueryID != req.QueryID {
		c.markBroken()
		return nil, fmt.Errorf("client: response for query %d, want %d", resp.QueryID, req.QueryID)
	}
	return resp.Results, nil
}

// OPRFPublicKey fetches the server's OPRF public key, the one piece of
// bootstrap material a device needs beyond the server address.
func (c *Conn) OPRFPublicKey() (oprf.PublicKey, error) {
	payload, err := c.Forward(wire.TypeOPRFKeyReq, nil, wire.TypeOPRFKeyResp, true)
	if err != nil {
		return oprf.PublicKey{}, err
	}
	resp, err := wire.DecodeOPRFKeyResp(payload)
	if err != nil {
		return oprf.PublicKey{}, err
	}
	pk := oprf.PublicKey{N: resp.N, E: int(resp.E)}
	if err := pk.Validate(); err != nil {
		return oprf.PublicKey{}, fmt.Errorf("client: server sent invalid OPRF key: %w", err)
	}
	return pk, nil
}

// Evaluate implements oprf.Evaluator over the network: an EvaluateBatch of
// one element.
func (c *Conn) Evaluate(x *big.Int) (*big.Int, error) {
	if x == nil {
		return nil, errors.New("client: nil OPRF element")
	}
	ys, err := c.EvaluateBatch([]*big.Int{x})
	if err != nil {
		return nil, err
	}
	return ys[0], nil
}

// EvaluateBatch implements oprf.BatchEvaluator over the network: one
// TypeOPRFBatchReq round trip for up to wire.MaxOPRFBatch elements, the
// only OPRF round the protocol has. A larger batch is refused before
// anything is sent.
func (c *Conn) EvaluateBatch(xs []*big.Int) ([]*big.Int, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	if len(xs) > wire.MaxOPRFBatch {
		return nil, fmt.Errorf("client: OPRF batch of %d exceeds limit %d", len(xs), wire.MaxOPRFBatch)
	}
	req := wire.OPRFBatchReq{Xs: xs}
	payload, err := c.Forward(wire.TypeOPRFBatchReq, req.AppendEncode(nil), wire.TypeOPRFBatchResp, true)
	if err != nil {
		return nil, err
	}
	resp, err := wire.DecodeOPRFBatchResp(payload)
	if err != nil {
		return nil, err
	}
	if len(resp.Ys) != len(xs) {
		return nil, fmt.Errorf("client: batch returned %d results for %d inputs", len(resp.Ys), len(xs))
	}
	return resp.Ys, nil
}

var (
	_ oprf.Evaluator      = (*Conn)(nil)
	_ oprf.BatchEvaluator = (*Conn)(nil)
)
