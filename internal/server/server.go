// Package server hosts the untrusted S-MATCH server over TCP+TLS: it stores
// encrypted profiles, answers matching queries (internal/match), and runs
// the RSA-OPRF evaluator side of key generation (internal/oprf). This is
// the PC side of the paper's testbed.
//
// The server is "untrusted" in the protocol sense: nothing it stores or
// computes requires it to see plaintext profiles. TLS protects the channel
// from third parties (the paper's SSL socket), not from the server itself.
package server

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"sync"
	"time"

	"smatch/internal/broker"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/service"
	"smatch/internal/wire"
)

// Config carries the server's dependencies and tunables.
type Config struct {
	// OPRF is the key-generation evaluator. Required.
	OPRF *oprf.Server
	// MaxTopK caps the per-query result count a client may request.
	MaxTopK int
	// ReadTimeout bounds how long the server waits for a frame on an
	// open connection.
	ReadTimeout time.Duration
	// WriteTimeout bounds each frame write. Without it, one client that
	// stops draining its socket parks a server goroutine in
	// writeRawFrame forever; with it, the stalled connection is dropped
	// and the goroutine released.
	WriteTimeout time.Duration
	// MaxConns caps concurrently served connections. At the cap, Serve
	// stops accepting (kernel-backlog backpressure); connections still
	// pending after AcceptBackoff are accepted and immediately closed so
	// dialers fail fast instead of hanging in the TLS handshake.
	// 0 means unlimited.
	MaxConns int
	// AcceptBackoff is how long Serve waits for a slot to free before
	// rejecting pending connections when at MaxConns. Zero means 500ms.
	AcceptBackoff time.Duration
	// DrainTimeout bounds a graceful shutdown: after it expires,
	// connections still mid-request are force-closed. Zero means 5s.
	DrainTimeout time.Duration
	// PipelineDepth is the per-connection worker count (and job-queue
	// bound); it caps how many requests one connection can have executing
	// at once, and a client's hello may ask for less. Zero means 32.
	PipelineDepth int
	// NotifyQueueCap bounds each subscription's pending-notification
	// queue; at the cap the oldest notification is dropped (and counted)
	// so a slow subscriber never stalls the upload path. Zero means
	// broker.DefaultQueueCap.
	NotifyQueueCap int
	// MaxSubsPerConn caps standing subscriptions per connection. Zero
	// means 64.
	MaxSubsPerConn int
	// Logf receives structured-ish log lines; nil disables logging.
	Logf func(format string, args ...any)
	// Store supplies a pre-populated matching store (e.g. restored from a
	// snapshot); nil starts empty.
	Store *match.Server
	// Metrics receives operation counters and latency histograms; nil
	// creates a private registry (recording is always on — it is atomic
	// adds only). Retrieve it with Server.Metrics.
	Metrics *metrics.Registry
	// Journal, when non-nil, makes mutations durable: every upload and
	// remove is appended (and fsynced) to the write-ahead log before it
	// touches the store, and only then acknowledged. Pair it with the
	// store recovered by OpenJournal.
	Journal *Journal
	// ServiceJournal, when non-nil, replaces Journal as the durability
	// hook the request handlers run — the cluster's semi-synchronous
	// replication wraps the local Journal so an ack also waits for a
	// follower. Journal should still be set to the wrapped local journal
	// so replication pulls can reach the WAL.
	ServiceJournal service.Journal
	// RemoteSubscriber, when non-nil, replaces the local broker as the
	// target of subscribe requests: the server registers the standing
	// probe remotely (a router registering on the partition that owns
	// the probed bucket) and relays the returned notification stream to
	// the client. cancel tears the remote subscription down.
	RemoteSubscriber func(req *wire.SubscribeReq, deliver func(wire.MatchNotify) bool) (cancel func(), err error)
}

func (c Config) withDefaults() Config {
	if c.MaxTopK == 0 {
		c.MaxTopK = 100
	}
	if c.ReadTimeout == 0 {
		c.ReadTimeout = 30 * time.Second
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = 30 * time.Second
	}
	if c.AcceptBackoff == 0 {
		c.AcceptBackoff = 500 * time.Millisecond
	}
	if c.DrainTimeout == 0 {
		c.DrainTimeout = 5 * time.Second
	}
	if c.PipelineDepth == 0 {
		c.PipelineDepth = 32
	}
	if c.PipelineDepth > 65535 {
		c.PipelineDepth = 65535 // the hello ack carries it as a uint16
	}
	if c.MaxSubsPerConn == 0 {
		c.MaxSubsPerConn = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is a running S-MATCH service endpoint.
type Server struct {
	cfg     Config
	store   *match.Server
	svc     *service.Registry
	broker  *broker.Broker
	metrics *metrics.Registry
	ln      net.Listener
	sem     chan struct{} // MaxConns slots; nil means unlimited

	mu     sync.Mutex
	conns  map[net.Conn]*connState
	closed bool
	wg     sync.WaitGroup
}

// connState is what a graceful drain needs to know about a connection:
// inflight counts requests accepted by the reader whose response is not
// yet written, closing marks the drain boundary (frames read after it are
// dropped), and push owns the one close path — requestDrain flushes queued
// notifications, then closes the conn, and never blocks. Shutdown calls it
// at once on an idle connection (one that has not said hello yet
// included); the response writer calls it when the last in-flight request
// of a closing connection is on the wire.
type connState struct {
	mu       sync.Mutex
	inflight int
	closing  bool
	push     *connPush
}

// New creates a server around a fresh matching store.
func New(cfg Config) (*Server, error) {
	if cfg.OPRF == nil {
		return nil, errors.New("server: nil OPRF evaluator")
	}
	cfg = cfg.withDefaults()
	store := cfg.Store
	if store == nil {
		store = match.NewServer()
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	// Process-level runtime/GC gauges (heap, goroutines, pause histogram);
	// idempotent under RegisterGauge's replace semantics when several
	// servers share a registry.
	metrics.RegisterRuntimeGauges(reg)
	// Build identity (module version, toolchain, OS/arch) — computed once,
	// constant for the process lifetime.
	metrics.RegisterBuildInfo(reg)
	// The store's bucket-size distribution (the |V| behind per-query cost)
	// is a gauge: computed on scrape, not on the hot path.
	reg.RegisterGauge("bucket_stats", func() any { return store.BucketStats() })
	// Nonzero means the ID directory and a bucket index disagreed — a
	// store bug surfaced instead of silently degrading (see
	// match.ErrInconsistent).
	reg.RegisterGauge("match_index_inconsistencies", func() any { return match.IndexInconsistencies() })
	bk := broker.New(broker.Config{QueueCap: cfg.NotifyQueueCap, Metrics: reg})
	reg.RegisterGauge("broker", func() any { return bk.Stats() })
	deps := service.Deps{Store: store, OPRF: cfg.OPRF, Metrics: reg, MaxTopK: cfg.MaxTopK, Publisher: bk}
	if cfg.ServiceJournal != nil {
		deps.Journal = cfg.ServiceJournal
	} else if cfg.Journal != nil {
		// Assign only when non-nil: a typed-nil *Journal inside the
		// interface would dodge the handlers' nil checks.
		deps.Journal = cfg.Journal
	}
	svc, err := service.New(deps)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		store:   store,
		svc:     svc,
		broker:  bk,
		metrics: reg,
		conns:   make(map[net.Conn]*connState),
	}
	if cfg.MaxConns > 0 {
		s.sem = make(chan struct{}, cfg.MaxConns)
	}
	return s, nil
}

// Store exposes the matching store (for in-process inspection and tests).
func (s *Server) Store() *match.Server { return s.store }

// Service exposes the request-handler registry so cluster roles can
// install additional operations (replication pulls on a leader) or
// replace the standard ones with forwarders (a router). Mutate it only
// between New and Serve.
func (s *Server) Service() *service.Registry { return s.svc }

// Metrics exposes the server's observability registry.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }

// Listen starts accepting TLS connections on addr (e.g. "127.0.0.1:0") with
// a fresh self-signed certificate, returning the bound address. Serve loops
// until ctx is cancelled or Close is called.
func (s *Server) Listen(addr string) (net.Addr, error) {
	cert, err := SelfSignedCert()
	if err != nil {
		return nil, err
	}
	ln, err := tls.Listen("tcp", addr, &tls.Config{Certificates: []tls.Certificate{cert}})
	if err != nil {
		return nil, fmt.Errorf("server: listen: %w", err)
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve accepts connections until the context is cancelled, at which point
// the server drains gracefully (stop accepting, finish in-flight requests
// under DrainTimeout, then close). It returns nil on clean shutdown.
func (s *Server) Serve(ctx context.Context) error {
	if s.ln == nil {
		return errors.New("server: Serve before Listen")
	}
	stop := context.AfterFunc(ctx, func() { s.Shutdown() })
	defer stop()
	for {
		// Backpressure: at the connection cap, stop accepting and wait for
		// a slot. Dials queue in the kernel backlog; if no slot frees
		// within AcceptBackoff we accept-and-close pending connections so
		// their dialers fail fast instead of hanging in the handshake.
		atCap := false
		if s.sem != nil {
			timer := time.NewTimer(s.cfg.AcceptBackoff)
			select {
			case s.sem <- struct{}{}:
				timer.Stop()
			case <-timer.C:
				atCap = true
			}
		}
		conn, err := s.ln.Accept()
		if err != nil {
			if s.sem != nil && !atCap {
				<-s.sem
			}
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed || ctx.Err() != nil {
				s.wg.Wait()
				return nil
			}
			// Accept failed while serving: tear down tracked connections
			// and wait for their handlers, mirroring the clean-shutdown
			// path, so an accept error never leaks goroutines or conns.
			s.Close()
			s.wg.Wait()
			return fmt.Errorf("server: accept: %w", err)
		}
		if atCap {
			// A slot may have freed while we were parked in Accept.
			select {
			case s.sem <- struct{}{}:
			default:
				// Count first: the dialer sees the close at once and may
				// read the counter.
				s.metrics.ConnsRejected.Add(1)
				conn.Close()
				continue
			}
		}
		st := s.track(conn)
		if st == nil {
			conn.Close()
			s.releaseSlot()
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.releaseSlot()
			s.handle(conn, st)
		}()
	}
}

// track registers an accepted connection for Close/Shutdown and starts
// its push pump, so the drain path exists before the first frame is read.
// It returns nil once the server is closed.
func (s *Server) track(conn net.Conn) *connState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	st := &connState{push: newConnPush(s, conn)}
	s.conns[conn] = st
	return st
}

func (s *Server) releaseSlot() {
	if s.sem != nil {
		<-s.sem
	}
}

// Close stops the listener and all open connections immediately. For a
// graceful stop, use Shutdown (or cancel Serve's context).
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
}

// Shutdown drains the server gracefully: stop accepting, close idle
// connections, let connections that are mid-request finish and write their
// response, and force-close whatever is still busy once DrainTimeout
// expires. It returns nil when every connection drained in time.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	states := make([]*connState, 0, len(s.conns))
	for _, st := range s.conns {
		states = append(states, st)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	for _, st := range states {
		st.mu.Lock()
		st.closing = true
		if st.inflight == 0 {
			// Idle: the handler is parked in a read; the pump flushes any
			// queued notifications and closes the conn, which unblocks it.
			st.push.requestDrain()
		}
		st.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(s.cfg.DrainTimeout)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
		s.mu.Lock()
		n := len(s.conns)
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.metrics.DrainForcedCloses.Add(uint64(n))
		<-done
		return fmt.Errorf("server: drain deadline exceeded; force-closed %d connection(s)", n)
	}
}

// handle runs one connection: the mandatory hello exchange, then the
// pipelined engine until the connection ends.
func (s *Server) handle(conn net.Conn, st *connState) {
	s.metrics.TotalConns.Add(1)
	s.metrics.ActiveConns.Add(1)
	defer func() {
		st.push.teardown()
		s.metrics.ActiveConns.Add(-1)
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
		return
	}
	id, t, payload, err := wire.ReadFrameV2Max(conn, maxFirstPayload)
	if err != nil {
		switch {
		case isTimeout(err):
			s.metrics.ReadTimeouts.Add(1)
		case errors.Is(err, wire.ErrFrameTooLarge):
			s.metrics.Errors.Add(1)
			s.cfg.Logf("server: connection dropped: first frame claims more than %d bytes", maxFirstPayload)
		}
		return // EOF, timeout or protocol garbage: drop the connection
	}
	depth, err := s.acceptHello(conn, id, t, payload)
	if err != nil {
		s.metrics.Errors.Add(1)
		s.cfg.Logf("server: %v", err)
		return
	}
	s.metrics.PipelinedConns.Add(1)
	s.servePipelined(conn, st, depth)
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// writeRawFrame sends one pre-built frame — header already backfilled by
// FinishFrameV2 — as a single conn.Write (one syscall, one TLS record),
// under the write deadline. Every frame the server sends goes out through
// here; a failure leaves the stream torn, so callers drop the connection.
func (s *Server) writeRawFrame(conn net.Conn, frame []byte) error {
	if err := conn.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
		return err
	}
	_, err := conn.Write(frame)
	if isTimeout(err) {
		s.metrics.WriteTimeouts.Add(1)
	}
	return err
}

// maxFirstPayload bounds the payload the server reads from a peer that
// has not said hello yet. A hello payload is 4 bytes, and a small frame of
// another type still gets its refusal; a first frame that claims more is
// dropped unread, so an unauthenticated peer can make the server neither
// allocate a large payload nor wait for one.
const maxFirstPayload = 1 << 10

// acceptHello is the server side of the mandatory negotiation. The
// connection's first frame must be a TypeHello: its requested window is
// clamped to PipelineDepth and acked. Anything else — another message
// type, a malformed hello — is answered with one error frame naming the
// required hello, and the returned error makes handle close the
// connection. Both answers are ordinary v2 frames that echo the first
// frame's request ID (0 from a conforming client) and go out through
// writeRawFrame.
func (s *Server) acceptHello(conn net.Conn, id uint64, t wire.MsgType, payload []byte) (int, error) {
	var (
		hello *wire.Hello
		err   error
	)
	if t == wire.TypeHello {
		hello, err = wire.DecodeHello(payload)
	} else {
		err = fmt.Errorf("got message type %d", t)
	}
	depth, rt, frame := s.cfg.PipelineDepth, wire.TypeHelloResp, wire.BeginFrameV2(nil)
	if err != nil {
		err = fmt.Errorf("connection refused: the first frame must be a protocol v%d hello (message type %d): %w", wire.ProtocolV2, wire.TypeHello, err)
		rt, frame = wire.TypeError, (&wire.ErrorMsg{Text: err.Error()}).AppendEncode(frame)
	} else {
		if d := int(hello.Depth); d > 0 && d < depth {
			depth = d
		}
		frame = (&wire.Hello{Version: wire.ProtocolV2, Depth: uint16(depth)}).AppendEncode(frame)
	}
	_ = wire.FinishFrameV2(frame, 0, id, rt) // a hello or an error text always fits
	if werr := s.writeRawFrame(conn, frame); err == nil {
		err = werr // a failed refusal changes nothing: the connection closes either way
	}
	return depth, err
}

// bufPool recycles the pipelined path's frame buffers: request buffers
// (filled by the reader, released by the worker once its handler
// returns) and response buffers (filled by a worker with a complete v2
// frame, released by the writer after the frame is on the wire). Pooled
// as *[]byte so a Put never allocates a fresh slice header.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf() *[]byte  { return bufPool.Get().(*[]byte) }
func putBuf(b *[]byte) { bufPool.Put(b) }

// pipelineJob is one request travelling from the reader to a worker;
// pipelineResp is its response travelling from a worker to the writer.
// A job's payload aliases *buf, which the worker returns to bufPool
// after its handler is done with it; a resp's frame is complete (header
// backfilled) and aliases *buf, returned to the pool by the writer after
// the write — never before, so a frame can't be scribbled on mid-write.
type pipelineJob struct {
	id      uint64
	t       wire.MsgType
	buf     *[]byte
	payload []byte
}

type pipelineResp struct {
	frame []byte
	buf   *[]byte
}

// sealResp finalizes one pipelined response: frame was produced by
// BeginFrameV2 at offset 0, body is the handler's returned buffer (frame
// grown by the encoded payload) or nil on error. Handler errors become
// error frames carrying the request's ID — never a dropped connection —
// and an oversized response is downgraded to an error frame the same
// way, since the header was never written.
func (s *Server) sealResp(frame []byte, id uint64, rt wire.MsgType, body []byte, herr error) []byte {
	if herr == nil {
		frame = body
	} else {
		s.metrics.Errors.Add(1)
		s.cfg.Logf("server: %v", herr)
		rt = wire.TypeError
		frame = (&wire.ErrorMsg{Text: herr.Error()}).AppendEncode(frame[:wire.FrameHeaderLenV2])
	}
	if ferr := wire.FinishFrameV2(frame, 0, id, rt); ferr != nil {
		s.metrics.Errors.Add(1)
		s.cfg.Logf("server: %v", ferr)
		frame = (&wire.ErrorMsg{Text: ferr.Error()}).AppendEncode(frame[:wire.FrameHeaderLenV2])
		wire.FinishFrameV2(frame, 0, id, wire.TypeError) // an error text always fits
	}
	return frame
}

// processJob runs one pipelined request through its handler and builds
// the complete response frame in a pooled buffer. The request buffer is
// released as soon as the handler returns — the service layer's buffer
// contract (DESIGN §10) guarantees nothing retains the payload past
// that point.
func (s *Server) processJob(job pipelineJob) pipelineResp {
	out := getBuf()
	frame := wire.BeginFrameV2((*out)[:0])
	rt, body, err := s.svc.Handle(job.t, job.payload, frame)
	if job.buf != nil {
		putBuf(job.buf)
	}
	frame = s.sealResp(frame, job.id, rt, body, err)
	*out = frame
	return pipelineResp{frame: frame, buf: out}
}

// servePipelined runs the v2 protocol on an upgraded connection: a
// reader goroutine feeding a bounded job queue, depth workers executing
// service handlers concurrently, and a single writer goroutine
// serializing every response through the write-deadline choke point.
// Request IDs are the client's; responses complete (and are written) in
// whatever order the handlers finish.
//
// The connection also carries push-based matching: the reader handles
// subscribe/unsubscribe frames inline (registration is a map insert, so
// a subscription is live before any later frame on the same connection),
// and a per-connection pump (see push.go) writes TypeMatchNotify frames
// through the same write choke point — push.writeMu serializes the
// writer goroutine and the pump against each other.
func (s *Server) servePipelined(conn net.Conn, st *connState, depth int) {
	push := st.push
	jobs := make(chan pipelineJob, depth)
	resps := make(chan pipelineResp, depth)
	var workers sync.WaitGroup
	for i := 0; i < depth; i++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for job := range jobs {
				s.metrics.PipelineQueueDepth.Add(-1)
				resps <- s.processJob(job)
			}
		}()
	}
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for resp := range resps {
			if !push.writeFailed.Load() {
				push.writeMu.Lock()
				err := s.writeRawFrame(conn, resp.frame)
				push.writeMu.Unlock()
				if err != nil {
					// The stream is torn mid-frame; close the conn so the
					// reader unblocks, then keep draining resps so no
					// worker is ever left parked on the channel.
					if push.writeFailed.CompareAndSwap(false, true) {
						s.cfg.Logf("server: %v", err)
						conn.Close()
					}
				}
			}
			// The frame is on the wire (or the conn is dead); only now may
			// its buffer be recycled.
			putBuf(resp.buf)
			st.mu.Lock()
			st.inflight--
			drained := st.closing && st.inflight == 0
			st.mu.Unlock()
			if drained && !push.writeFailed.Load() {
				// Graceful drain: every accepted request has its response on
				// the wire; the pump flushes pending pushes and closes the
				// conn, which unblocks the reader.
				push.requestDrain()
			}
		}
	}()
	reader := &countingReader{r: conn}
	var rbuf *[]byte // pooled read buffer; handed off with each job
	for {
		if err := conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
			break
		}
		if rbuf == nil {
			rbuf = getBuf()
		}
		frameStart := reader.n
		id, t, payload, err := wire.ReadFrameV2Buf(reader, rbuf)
		if err != nil {
			if isTimeout(err) {
				// A standing subscriber is legitimately quiet: it registered a
				// probe and is waiting for pushes, possibly for hours. As long
				// as the deadline fired *between* frames (a mid-frame timeout
				// leaves the stream desynced, so that conn still dies) and the
				// connection holds live subscriptions, re-arm and keep
				// listening — a dead subscriber is reaped by the pump's write
				// deadline the next time a push is attempted.
				if reader.n == frameStart && push.hasSubs() {
					continue
				}
				s.metrics.ReadTimeouts.Add(1)
			}
			break
		}
		st.mu.Lock()
		if st.closing {
			// Raced the drain boundary: the request arrived as shutdown
			// closed this connection. Drop it — the client sees a connection
			// error and retries if the request was idempotent.
			st.mu.Unlock()
			break
		}
		st.inflight++
		st.mu.Unlock()
		switch t {
		case wire.TypeSubscribeReq, wire.TypeUnsubscribeReq:
			// Handled on the reader, not a worker: ordering is the point.
			// Every frame the reader accepts after this one sees the
			// registration, so an upload pipelined behind a subscribe on the
			// same connection is guaranteed to be evaluated against it. The
			// read buffer is reused on the next iteration — both handlers
			// copy anything they retain (see handleSubscribe).
			out := getBuf()
			frame := wire.BeginFrameV2((*out)[:0])
			var (
				rt   wire.MsgType
				body []byte
				herr error
			)
			if t == wire.TypeSubscribeReq {
				rt, body, herr = s.handleSubscribe(push, payload, frame)
			} else {
				rt, body, herr = s.handleUnsubscribe(push, payload, frame)
			}
			frame = s.sealResp(frame, id, rt, body, herr)
			*out = frame
			resps <- pipelineResp{frame: frame, buf: out}
		default:
			s.metrics.PipelineQueueDepth.Add(1)
			jobs <- pipelineJob{id: id, t: t, buf: rbuf, payload: payload}
			rbuf = nil // the worker releases it after handling
		}
	}
	if rbuf != nil {
		putBuf(rbuf)
	}
	close(jobs)
	workers.Wait()
	close(resps)
	<-writerDone
}

// countingReader tracks how many bytes have been consumed, letting the
// pipelined reader distinguish an idle read timeout (safe to retry) from
// one that fired mid-frame (stream desynced, conn must die).
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// SelfSignedCert generates an ephemeral ECDSA certificate for the TLS
// listener. Clients in this reproduction connect with certificate pinning
// disabled (InsecureSkipVerify) because channel privacy, not server
// authentication, is what the testbed models.
func SelfSignedCert() (tls.Certificate, error) {
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("server: generating key: %w", err)
	}
	// RFC 5280 wants serial numbers unique per issuer; a wall-clock serial
	// can collide across restarts, so draw 128 random bits instead.
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 128))
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("server: generating serial: %w", err)
	}
	tmpl := x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: "smatch-server"},
		NotBefore:    time.Now().Add(-time.Hour),
		NotAfter:     time.Now().Add(24 * time.Hour),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyEncipherment,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     []string{"localhost"},
		IPAddresses:  []net.IP{net.IPv4(127, 0, 0, 1), net.IPv6loopback},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &key.PublicKey, key)
	if err != nil {
		return tls.Certificate{}, fmt.Errorf("server: creating certificate: %w", err)
	}
	return tls.Certificate{Certificate: [][]byte{der}, PrivateKey: key}, nil
}
