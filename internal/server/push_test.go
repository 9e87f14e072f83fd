// Push-based matching integration suite: subscriptions registered over
// real TLS, server-initiated TypeMatchNotify frames, the
// slow-subscriber-never-blocks-apply guarantee, pull≡push equivalence
// against fresh MAX-distance queries, chaos on long-lived subscriber
// connections (under -race), and the no-hello regression — a connection
// that skips the hello must never see a response or a push frame.
package server

import (
	"bytes"
	"context"
	"crypto/tls"
	"fmt"
	"io"
	"math/big"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smatch/internal/client"
	"smatch/internal/netfault"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

// collectUntil drains a subscription channel until it closes or the
// deadline passes, returning everything received.
func collectUntil(sub *client.Subscription, n int, deadline time.Duration) []client.Notification {
	var out []client.Notification
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	for len(out) < n {
		select {
		case notif, ok := <-sub.C:
			if !ok {
				return out
			}
			out = append(out, notif)
		case <-timer.C:
			return out
		}
	}
	return out
}

// TestPushEndToEnd is the acceptance path: a subscriber over TLS receives
// a TypeMatchNotify for a qualifying upload without ever querying, a
// non-qualifying upload stays silent, a remove pushes the gone event, and
// unsubscribe stops delivery.
func TestPushEndToEnd(t *testing.T) {
	addr, srv := startServer(t)
	subscriber := dial(t, addr)
	uploader := dial(t, addr)

	probe := matchEntryForTest(0, "push-e2e", 100)
	sub, err := subscriber.Subscribe(probe, big.NewInt(10), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := uploader.Upload(matchEntryForTest(1, "push-e2e", 105)); err != nil {
		t.Fatal(err)
	}
	if err := uploader.Upload(matchEntryForTest(2, "push-e2e", 500)); err != nil {
		t.Fatal(err) // outside the threshold: must not notify
	}
	got := collectUntil(sub, 1, 5*time.Second)
	if len(got) != 1 {
		t.Fatalf("got %d notifications, want 1: %+v", len(got), got)
	}
	if got[0].Event != client.NotifyMatch || got[0].ID != profile.ID(1) || got[0].Seq != 1 || got[0].Dropped != 0 {
		t.Fatalf("unexpected notification %+v", got[0])
	}
	if len(got[0].Auth) == 0 {
		t.Error("match notification carries no auth blob for verification")
	}

	if err := uploader.Remove(profile.ID(1)); err != nil {
		t.Fatal(err)
	}
	got = collectUntil(sub, 1, 5*time.Second)
	if len(got) != 1 || got[0].Event != client.NotifyGone || got[0].ID != profile.ID(1) {
		t.Fatalf("remove pushed %+v, want one gone event for profile 1", got)
	}

	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	if err := uploader.Upload(matchEntryForTest(3, "push-e2e", 101)); err != nil {
		t.Fatal(err)
	}
	if got := collectUntil(sub, 1, 300*time.Millisecond); len(got) != 0 {
		t.Fatalf("notified after unsubscribe: %+v", got)
	}
	if n := srv.broker.NumSubs(); n != 0 {
		t.Errorf("broker holds %d subscriptions after unsubscribe", n)
	}
	if srv.Metrics().NotifiesSent.Load() < 2 {
		t.Errorf("notifies_sent = %d, want >= 2", srv.Metrics().NotifiesSent.Load())
	}
}

// TestSubscriptionsDieWithConn: closing the subscriber's connection
// deregisters its subscriptions server-side and closes the channel
// client-side.
func TestSubscriptionsDieWithConn(t *testing.T) {
	addr, srv := startServer(t)
	subscriber := dial(t, addr)
	sub, err := subscriber.Subscribe(matchEntryForTest(0, "push-die", 100), big.NewInt(10), 16)
	if err != nil {
		t.Fatal(err)
	}
	subscriber.Close()
	select {
	case _, ok := <-sub.C:
		if ok {
			t.Fatal("received a notification instead of channel close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("subscription channel not closed after conn close")
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.broker.NumSubs() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("broker still holds %d subscriptions after conn close", srv.broker.NumSubs())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Metrics().SubscriptionsActive.Load() != 0 {
		t.Errorf("subscriptions_active = %d after conn close", srv.Metrics().SubscriptionsActive.Load())
	}
}

// TestMaxSubsPerConnEnforced: the per-connection subscription cap turns
// the overflow registration into a server error, not a silent drop.
func TestMaxSubsPerConnEnforced(t *testing.T) {
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 5 * time.Second, MaxSubsPerConn: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	defer func() { cancel(); <-done }()
	conn := dialOpts(t, a.String(), client.Options{})
	for i := 0; i < 2; i++ {
		if _, err := conn.Subscribe(matchEntryForTest(0, fmt.Sprintf("b%d", i), 1), big.NewInt(1), 1); err != nil {
			t.Fatalf("subscription %d refused: %v", i, err)
		}
	}
	if _, err := conn.Subscribe(matchEntryForTest(0, "b2", 1), big.NewInt(1), 1); err == nil {
		t.Fatal("third subscription accepted past MaxSubsPerConn=2")
	}
}

// TestSubscribeDuplicateIDRefused: a second subscribe under a sub ID the
// connection already holds is refused with an error frame, and the first
// registration stands, both with the local broker and when a router relays
// the subscription upstream.
func TestSubscribeDuplicateIDRefused(t *testing.T) {
	var relayed, cancelled atomic.Int64
	for name, cfg := range map[string]Config{
		"local": {},
		"router-relayed": {RemoteSubscriber: func(*wire.SubscribeReq, func(wire.MatchNotify) bool) (func(), error) {
			relayed.Add(1)
			return func() { cancelled.Add(1) }, nil
		}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg.OPRF, cfg.ReadTimeout = testOPRF(t), 5*time.Second
			srv, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			a, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ctx) }()
			defer func() { cancel(); <-done }()

			raw := dialRawV2(t, a.String())
			req := subscribeReqForTest(5, "push-dup", 0, 1<<20).AppendEncode(nil)
			raw.send(1, wire.TypeSubscribeReq, req)
			if id, typ, _ := raw.recv(); id != 1 || typ != wire.TypeSubscribeResp {
				t.Fatalf("first subscribe: id %d type %d", id, typ)
			}
			raw.send(2, wire.TypeSubscribeReq, req)
			id, typ, payload := raw.recv()
			if id != 2 || typ != wire.TypeError {
				t.Fatalf("duplicate subscribe: id %d type %d, want an error frame for request 2", id, typ)
			}
			if msg, err := wire.DecodeErrorMsg(payload); err != nil || !strings.Contains(msg.Text, "already registered") {
				t.Fatalf("duplicate subscribe refused with %v (%v)", msg, err)
			}
			if cfg.RemoteSubscriber == nil {
				if n := srv.broker.NumSubs(); n != 1 {
					t.Errorf("broker holds %d subscriptions, want 1", n)
				}
			} else if r, c := relayed.Load(), cancelled.Load(); r != 1 || c != 0 {
				t.Errorf("remote subscriber saw %d registrations and %d cancels, want 1 and 0", r, c)
			}
		})
	}
}

// TestIdleSubscriberSurvivesReadTimeout: a standing probe is legitimately
// quiet — a subscriber that sends nothing for several read-deadline
// windows must keep its connection and still receive pushes; once it
// unsubscribes, the now-plain-idle connection dies by the deadline again.
func TestIdleSubscriberSurvivesReadTimeout(t *testing.T) {
	const readTimeout = 300 * time.Millisecond
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: readTimeout})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	defer func() { cancel(); <-done }()

	subscriber := dialOpts(t, a.String(), client.Options{Timeout: 5 * time.Second})
	sub, err := subscriber.Subscribe(matchEntryForTest(0, "push-idle", 100), big.NewInt(10), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Sit silent across several deadline windows. The reader must re-arm
	// each expiry without dropping the conn or counting a read timeout.
	time.Sleep(4 * readTimeout)
	if n := srv.Metrics().ReadTimeouts.Load(); n != 0 {
		t.Errorf("read_timeouts = %d while a subscriber idled, want 0", n)
	}

	uploader := dialOpts(t, a.String(), client.Options{Timeout: 5 * time.Second})
	if err := uploader.Upload(matchEntryForTest(1, "push-idle", 105)); err != nil {
		t.Fatal(err)
	}
	got := collectUntil(sub, 1, 5*time.Second)
	if len(got) != 1 || got[0].Event != client.NotifyMatch || got[0].ID != profile.ID(1) {
		t.Fatalf("idle subscriber got %+v, want one match for profile 1", got)
	}
	uploader.Close()

	// With the subscription gone the conn is ordinary-idle again: the next
	// deadline expiry must reap it.
	if err := sub.Unsubscribe(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * readTimeout)
	for srv.Metrics().ReadTimeouts.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unsubscribed idle conn not reaped by read deadline")
		}
		time.Sleep(readTimeout / 10)
	}
}

// dialRawTLSNarrow is dialRawTLS with a tiny TCP receive buffer, so a
// reader that stalls makes the server's writes block almost immediately
// instead of disappearing into kernel buffering.
func dialRawTLSNarrow(t *testing.T, address string) *tls.Conn {
	t.Helper()
	tcp, err := net.DialTimeout("tcp", address, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if err := tcp.(*net.TCPConn).SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	conn := tls.Client(tcp, &tls.Config{InsecureSkipVerify: true})
	if err := conn.Handshake(); err != nil {
		tcp.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// subscribeReqForTest builds a standing-probe request for the bucket.
func subscribeReqForTest(subID uint64, bucket string, sum, maxDist int64) *wire.SubscribeReq {
	probe := matchEntryForTest(0, bucket, sum)
	return &wire.SubscribeReq{
		SubID:    subID,
		KeyHash:  probe.KeyHash,
		CtBits:   uint32(probe.Chain.CtBits),
		NumAttrs: uint16(probe.Chain.NumAttrs()),
		Chain:    probe.Chain.Bytes(),
		MaxDist:  big.NewInt(maxDist),
	}
}

// TestStalledSubscriberNeverBlocksUploads is the second acceptance
// criterion: a subscriber that stops reading its socket entirely must not
// stall the upload ack path — publishes only append to the broker's
// bounded queue, and overflow is dropped and counted, never waited on.
func TestStalledSubscriberNeverBlocksUploads(t *testing.T) {
	srv, err := New(Config{
		OPRF:           testOPRF(t),
		ReadTimeout:    10 * time.Second,
		WriteTimeout:   500 * time.Millisecond,
		NotifyQueueCap: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Error("server did not shut down")
		}
	}()

	// Subscribe on a narrow-windowed raw conn, then never read again: the
	// server's push writes fill the small socket buffers, block, and hit
	// the write deadline while publishes keep overflowing the queue.
	raw := helloRaw(t, dialRawTLSNarrow(t, a.String()))
	raw.send(1, wire.TypeSubscribeReq, subscribeReqForTest(1, "push-stall", 0, 1<<40).AppendEncode(nil))
	if id, rt, payload := raw.recv(); id != 1 || rt != wire.TypeSubscribeResp {
		t.Fatalf("subscribe ack: id %d type %d (%x)", id, rt, payload)
	}

	// Big auth blobs make each push frame heavy, so the pump jams fast.
	uploader := dialOpts(t, a.String(), client.Options{Timeout: 5 * time.Second})
	auth := bytes.Repeat([]byte{0xaa}, 60<<10)
	start := time.Now()
	const uploads = 200
	for i := 1; i <= uploads; i++ {
		e := matchEntryForTest(uint32(i), "push-stall", int64(i))
		e.Auth = auth
		if err := uploader.Upload(e); err != nil {
			t.Fatalf("upload %d failed behind a stalled subscriber: %v", i, err)
		}
	}
	elapsed := time.Since(start)
	// Every ack must have been prompt: nowhere near even one WriteTimeout
	// per upload, which is what any accidental coupling to the stalled
	// push writes would cost.
	if elapsed > 20*time.Second {
		t.Errorf("%d uploads took %v behind a stalled subscriber", uploads, elapsed)
	}
	if drops := srv.Metrics().NotifiesDropped.Load(); drops == 0 {
		t.Error("stalled subscriber produced no counted drops")
	}
	if enq := srv.Metrics().NotifiesEnqueued.Load(); enq == 0 {
		t.Error("no notifications enqueued")
	}
}

// TestNoHelloRefused is the regression satellite: a connection whose
// first frame is not a hello gets exactly one error frame (echoing that
// frame's request ID) and then EOF — never a response, never a
// registration, never a push, even while uploads land in the bucket it
// tried to subscribe to.
func TestNoHelloRefused(t *testing.T) {
	for name, first := range map[string]struct {
		typ     wire.MsgType
		payload []byte
	}{
		"subscribe": {wire.TypeSubscribeReq, subscribeReqForTest(1, "push-nohello", 3, 1<<30).AppendEncode(nil)},
		"query":     {wire.TypeQueryReq, (&wire.QueryReq{QueryID: 1, ID: 7, TopK: 1}).Encode()},
		"bad hello": {wire.TypeHello, []byte{0, 1, 0, 8}}, // downlevel version
	} {
		t.Run(name, func(t *testing.T) {
			var logged atomic.Int32
			srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 5 * time.Second,
				Logf: func(string, ...any) { logged.Add(1) }})
			if err != nil {
				t.Fatal(err)
			}
			a, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() { done <- srv.Serve(ctx) }()
			defer func() { cancel(); <-done }()
			addr := a.String()

			uploader := dial(t, addr)
			if err := uploader.Upload(matchEntryForTest(7, "push-nohello", 3)); err != nil {
				t.Fatal(err)
			}

			raw := dialRawTLS(t, addr)
			if err := wire.WriteFrameV2(raw, 5, first.typ, first.payload); err != nil {
				t.Fatal(err)
			}
			// Qualifying uploads race the refusal: they must push to nobody.
			for i := 8; i < 12; i++ {
				if err := uploader.Upload(matchEntryForTest(uint32(i), "push-nohello", 3)); err != nil {
					t.Fatal(err)
				}
			}
			raw.SetReadDeadline(time.Now().Add(5 * time.Second))
			id, rt, payload, err := wire.ReadFrameV2(raw)
			if err != nil {
				t.Fatalf("no refusal frame: %v", err)
			}
			if id != 5 || rt != wire.TypeError {
				t.Fatalf("refusal has ID %d, type %d; want the refused frame's ID 5 and TypeError", id, rt)
			}
			msg, err := wire.DecodeErrorMsg(payload)
			if err != nil || !strings.Contains(msg.Text, "hello") {
				t.Fatalf("refusal %q (err %v) does not name the required hello", msg.Text, err)
			}
			rest, err := io.ReadAll(raw)
			if err != nil || len(rest) != 0 {
				t.Fatalf("after the refusal: %d more bytes, err %v; want clean EOF", len(rest), err)
			}
			if got := srv.broker.NumSubs(); got != 0 {
				t.Errorf("broker holds %d subscriptions from a conn that never said hello", got)
			}
			if got := srv.Metrics().NotifiesSent.Load(); got != 0 {
				t.Errorf("notifies_sent = %d, want 0", got)
			}
			if got := srv.Metrics().Errors.Load(); got != 1 {
				t.Errorf("errors = %d, want 1 (the refusal)", got)
			}
			if got := logged.Load(); got != 1 {
				t.Errorf("refusal logged %d times, want once", got)
			}
			if got := srv.Metrics().PipelinedConns.Load(); got != 1 {
				t.Errorf("pipelined_conns = %d, want 1 (the uploader only)", got)
			}
		})
	}
}

// TestPullPushEquivalence is the equivalence satellite: with no drops,
// replaying the notification stream (matches minus gones) must converge
// to exactly the set a fresh MAX-distance query returns for the same
// probe and threshold.
func TestPullPushEquivalence(t *testing.T) {
	addr, srv := startServer(t)
	subscriber := dial(t, addr)
	uploader := dial(t, addr)

	const (
		bucket  = "push-eq"
		probeID = 999
		sum     = 500
		dist    = 50
	)
	// The subscriber's own profile goes in before subscribing (queries
	// resolve the probe by stored ID; the broker only pushes uploads that
	// happen after registration, and the query path excludes self).
	self := matchEntryForTest(probeID, bucket, sum)
	if err := subscriber.Upload(self); err != nil {
		t.Fatal(err)
	}
	sub, err := subscriber.Subscribe(self, big.NewInt(dist), 4096)
	if err != nil {
		t.Fatal(err)
	}

	// Deterministic workload: uploads in and out of range, re-uploads
	// drifting across the threshold, re-keys to another bucket, removes.
	for i := 1; i <= 30; i++ {
		if err := uploader.Upload(matchEntryForTest(uint32(i), bucket, int64(430+5*i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i <= 10; i++ {
		if err := uploader.Upload(matchEntryForTest(uint32(i), bucket, int64(400+i))); err != nil {
			t.Fatal(err) // drifted below the threshold
		}
	}
	for i := 25; i <= 28; i++ {
		if err := uploader.Upload(matchEntryForTest(uint32(i), "push-eq-other", int64(430+5*i))); err != nil {
			t.Fatal(err) // re-keyed away
		}
	}
	for i := 15; i <= 18; i++ {
		if err := uploader.Remove(profile.ID(uint32(i))); err != nil {
			t.Fatal(err)
		}
	}

	want := map[profile.ID]bool{}
	results, err := uploader.QueryMaxDistance(profile.ID(probeID), big.NewInt(dist))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		want[r.ID] = true
	}

	// Replay the push stream until it converges to the pull answer.
	live := map[profile.ID]bool{}
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	converged := func() bool {
		if len(live) != len(want) {
			return false
		}
		for id := range want {
			if !live[id] {
				return false
			}
		}
		return true
	}
	for !converged() {
		select {
		case n, ok := <-sub.C:
			if !ok {
				t.Fatalf("subscription closed before convergence: live %v, want %v", live, want)
			}
			if n.Dropped != 0 {
				t.Fatalf("notification reports %d drops; equivalence needs a lossless stream", n.Dropped)
			}
			switch n.Event {
			case client.NotifyMatch:
				live[n.ID] = true
			case client.NotifyGone:
				delete(live, n.ID)
			}
		case <-deadline.C:
			t.Fatalf("push stream did not converge to pull: live %v, want %v", live, want)
		}
	}
	// Quiesced stream must not drift past the pull answer.
	time.Sleep(100 * time.Millisecond)
	for {
		select {
		case n := <-sub.C:
			t.Fatalf("stream kept going after convergence: %+v", n)
		default:
		}
		break
	}
	if sub.LocalDropped() != 0 {
		t.Errorf("client dropped %d notifications locally", sub.LocalDropped())
	}
	if srv.Metrics().NotifiesDropped.Load() != 0 {
		t.Errorf("server dropped %d notifications", srv.Metrics().NotifiesDropped.Load())
	}
}

// TestPushChaosLongLived is the chaos satellite: a long-lived subscriber
// connection with injected transport faults (fragmented writes, slow
// reads) rides out a concurrent upload/remove storm. Invariants: no
// notification is delivered twice, sequence accounting is exact — for
// the i-th delivered notification, seq == i + server drops — and the
// server drains within its deadline at the end. Run under -race in CI.
func TestPushChaosLongLived(t *testing.T) {
	srv, err := New(Config{
		OPRF:           testOPRF(t),
		ReadTimeout:    5 * time.Second,
		WriteTimeout:   2 * time.Second,
		DrainTimeout:   3 * time.Second,
		NotifyQueueCap: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ctx) }()

	faults := netfault.Faults{
		MaxWriteChunk: 7,
		ChunkDelay:    100 * time.Microsecond,
		ReadDelay:     200 * time.Microsecond,
	}
	subscriber := dialOpts(t, a.String(), client.Options{
		Timeout: 5 * time.Second,
		Dialer: func(network, addr string) (net.Conn, error) {
			raw, err := net.DialTimeout(network, addr, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return netfault.New(raw, faults), nil
		},
	})
	sub, err := subscriber.Subscribe(matchEntryForTest(0, "push-chaos", 0), big.NewInt(1<<40), 4096)
	if err != nil {
		t.Fatal(err)
	}

	// Consumer drains continuously so nothing is dropped client-side.
	var received []client.Notification
	consumerDone := make(chan struct{})
	go func() {
		defer close(consumerDone)
		for n := range sub.C {
			received = append(received, n)
		}
	}()

	// Upload/remove storm from clean concurrent connections.
	const uploaders = 3
	const perUploader = 50
	var wg sync.WaitGroup
	errCh := make(chan error, uploaders)
	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			conn, err := client.Dial(a.String(), client.Options{Timeout: 5 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			base := uint32(1 + u*perUploader)
			for i := uint32(0); i < perUploader; i++ {
				id := base + i
				if err := conn.Upload(matchEntryForTest(id, "push-chaos", int64(id))); err != nil {
					errCh <- fmt.Errorf("upload %d: %w", id, err)
					return
				}
				if i%5 == 4 {
					if err := conn.Remove(profile.ID(id)); err != nil {
						errCh <- fmt.Errorf("remove %d: %w", id, err)
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Let deliveries settle: stop once the sent counter catches up with
	// enqueued-minus-dropped, then drain the server.
	m := srv.Metrics()
	deadline := time.Now().Add(10 * time.Second)
	for m.NotifiesSent.Load() < m.NotifiesEnqueued.Load()-m.NotifiesDropped.Load() {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	drainStart := time.Now()
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("server did not drain with a live subscriber attached")
	}
	if elapsed := time.Since(drainStart); elapsed > 5*time.Second {
		t.Errorf("drain took %v, want under DrainTimeout plus slack", elapsed)
	}

	// The conn died with the server; the subscription channel must close.
	select {
	case <-consumerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("subscription channel never closed after server drain")
	}

	if sub.LocalDropped() != 0 {
		t.Fatalf("client dropped %d notifications with a live consumer", sub.LocalDropped())
	}
	// Exact sequence accounting: the server assigns seq at enqueue and
	// stamps cumulative drops at delivery, the transport is in-order and
	// reliable, so the i-th delivered notification (1-based) satisfies
	// seq == i + dropped. This simultaneously proves no duplicate
	// delivery, no reordering, and that every gap is a counted drop.
	for i, n := range received {
		if n.Seq != uint64(i+1)+n.Dropped {
			t.Fatalf("notification %d: seq %d, dropped %d — accounting broken (want seq == %d+dropped)",
				i, n.Seq, n.Dropped, i+1)
		}
		if n.Event != client.NotifyMatch && n.Event != client.NotifyGone {
			t.Fatalf("notification %d: unknown event %d", i, n.Event)
		}
		if n.ID == 0 || n.ID > uploaders*perUploader {
			t.Fatalf("notification %d: profile %d never uploaded", i, n.ID)
		}
	}
	if len(received) == 0 {
		t.Fatal("chaos run delivered no notifications at all")
	}
}

// TestPushSubscriptionSoak is the CI soak step: several subscriber
// connections with per-bucket probes ride a sustained concurrent
// upload/remove workload, with the sequence-accounting invariant checked
// on every stream. Guarded by -short.
func TestPushSubscriptionSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test; skipped with -short")
	}
	addr, srv := startServer(t)

	const (
		buckets      = 4
		subsPerBkt   = 2
		uploaders    = 4
		perUploader  = 150
		clientBuffer = 8192
	)
	type subscriber struct {
		sub    *client.Subscription
		recv   []client.Notification
		done   chan struct{}
		bucket int
	}
	var subs []*subscriber
	for b := 0; b < buckets; b++ {
		for k := 0; k < subsPerBkt; k++ {
			conn := dial(t, addr)
			probe := matchEntryForTest(0, fmt.Sprintf("soak-%d", b), int64(500*b+250*k))
			s, err := conn.Subscribe(probe, big.NewInt(200), clientBuffer)
			if err != nil {
				t.Fatal(err)
			}
			sc := &subscriber{sub: s, done: make(chan struct{}), bucket: b}
			go func() {
				defer close(sc.done)
				for n := range s.C {
					sc.recv = append(sc.recv, n)
				}
			}()
			subs = append(subs, sc)
		}
	}

	var wg sync.WaitGroup
	errCh := make(chan error, uploaders)
	for u := 0; u < uploaders; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			conn, err := client.Dial(addr, client.Options{Timeout: 5 * time.Second})
			if err != nil {
				errCh <- err
				return
			}
			defer conn.Close()
			for i := 0; i < perUploader; i++ {
				id := uint32(1 + u*perUploader + i)
				bucket := fmt.Sprintf("soak-%d", int(id)%buckets)
				sum := int64((int(id) * 37) % 2000)
				if err := conn.Upload(matchEntryForTest(id, bucket, sum)); err != nil {
					errCh <- fmt.Errorf("upload %d: %w", id, err)
					return
				}
				switch i % 7 {
				case 3: // drift within/out of range
					if err := conn.Upload(matchEntryForTest(id, bucket, sum+150)); err != nil {
						errCh <- fmt.Errorf("re-upload %d: %w", id, err)
						return
					}
				case 5:
					if err := conn.Remove(profile.ID(id)); err != nil {
						errCh <- fmt.Errorf("remove %d: %w", id, err)
						return
					}
				}
			}
		}(u)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// Settle, then close every subscriber conn to end the streams.
	m := srv.Metrics()
	deadline := time.Now().Add(10 * time.Second)
	for m.NotifiesSent.Load() < m.NotifiesEnqueued.Load()-m.NotifiesDropped.Load() {
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := srv.Shutdown(); err != nil {
		t.Errorf("shutdown: %v", err)
	}
	total := 0
	for si, sc := range subs {
		select {
		case <-sc.done:
		case <-time.After(5 * time.Second):
			t.Fatalf("subscriber %d stream never closed", si)
		}
		if d := sc.sub.LocalDropped(); d != 0 {
			t.Errorf("subscriber %d dropped %d locally with a live consumer", si, d)
		}
		for i, n := range sc.recv {
			if n.Seq != uint64(i+1)+n.Dropped {
				t.Fatalf("subscriber %d notification %d: seq %d dropped %d — accounting broken", si, i, n.Seq, n.Dropped)
			}
		}
		total += len(sc.recv)
	}
	if total == 0 {
		t.Fatal("soak delivered no notifications at all")
	}
	t.Logf("soak: %d notifications across %d subscribers (%d enqueued, %d dropped, %d sent)",
		total, len(subs), m.NotifiesEnqueued.Load(), m.NotifiesDropped.Load(), m.NotifiesSent.Load())
}
