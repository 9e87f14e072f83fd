// Integration tests for the pipelined session: wire-vs-direct
// equivalence (the workload through TLS, framing and the service layer
// leaves the store and the answers a directly driven match.Server
// gives), concurrent multiplexed callers, out-of-order completion under
// injected transport faults, and graceful drain with requests in flight.
package server

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"net"
	"sync"
	"testing"
	"time"

	"smatch/internal/client"
	"smatch/internal/match"
	"smatch/internal/netfault"
	"smatch/internal/profile"
)

// dialOpts is dial with caller-controlled options (the suite sets
// MaxInFlight, MaxRetries and a faulty Dialer per test).
func dialOpts(t *testing.T, addr string, opts client.Options) *client.Conn {
	t.Helper()
	if opts.Timeout == 0 {
		opts.Timeout = 5 * time.Second
	}
	c, err := client.Dial(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// workloadTarget is what runWorkload drives: a *client.Conn, or the store
// itself behind directStore.
type workloadTarget interface {
	Upload(match.Entry) error
	UploadBatch([]match.Entry) ([]string, error)
	Remove(profile.ID) error
	Query(profile.ID, int) ([]match.Result, error)
	QueryMaxDistance(profile.ID, *big.Int) ([]match.Result, error)
}

// directStore drives a match.Server with no wire, server or service layer
// in between — the reference the networked path is compared against.
type directStore struct{ *match.Server }

func (d directStore) UploadBatch(entries []match.Entry) ([]string, error) {
	for _, e := range entries {
		if err := d.Upload(e); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func (d directStore) Query(id profile.ID, k int) ([]match.Result, error) { return d.Match(id, k) }

func (d directStore) QueryMaxDistance(id profile.ID, maxDist *big.Int) ([]match.Result, error) {
	return d.MatchMaxDistance(id, maxDist)
}

// runWorkload drives one deterministic mixed workload: uploads (single
// and batch), re-uploads that move buckets, removes, and queries in both
// modes. It returns the query responses in issue order so the equivalence
// test can compare them across targets.
func runWorkload(t *testing.T, c workloadTarget) []string {
	t.Helper()
	for i := 1; i <= 10; i++ {
		if err := c.Upload(matchEntryForTest(uint32(i), "bucket-a", int64(i*10))); err != nil {
			t.Fatal(err)
		}
	}
	batch := make([]match.Entry, 0, 10)
	for i := 11; i <= 20; i++ {
		batch = append(batch, matchEntryForTest(uint32(i), "bucket-b", int64(i*7)))
	}
	if _, err := c.UploadBatch(batch); err != nil {
		t.Fatal(err)
	}
	// Re-key two users across buckets and drop two others.
	if err := c.Upload(matchEntryForTest(3, "bucket-b", 33)); err != nil {
		t.Fatal(err)
	}
	if err := c.Upload(matchEntryForTest(14, "bucket-a", 44)); err != nil {
		t.Fatal(err)
	}
	for _, id := range []profile.ID{7, 18} {
		if err := c.Remove(id); err != nil {
			t.Fatal(err)
		}
	}
	var responses []string
	for _, q := range []profile.ID{1, 5, 14} {
		results, err := c.Query(q, 4)
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, fmt.Sprintf("%+v", results))
	}
	results, err := c.QueryMaxDistance(11, big.NewInt(50))
	if err != nil {
		t.Fatal(err)
	}
	responses = append(responses, fmt.Sprintf("%+v", results))
	return responses
}

func TestWireDirectEquivalence(t *testing.T) {
	// The same workload through a pipelined connection and straight into
	// a match.Server must leave byte-identical stores (Snapshot is
	// deterministic: ascending user-ID order) and return identical query
	// responses.
	addr, srv := startServer(t)
	direct := match.NewServer()
	respWire := runWorkload(t, dialOpts(t, addr, client.Options{}))
	respDirect := runWorkload(t, directStore{direct})

	if got := srv.Metrics().PipelinedConns.Load(); got != 1 {
		t.Errorf("pipelined_conns = %d, want 1", got)
	}
	for i := range respDirect {
		if respWire[i] != respDirect[i] {
			t.Errorf("query %d diverged:\n  wire:   %s\n  direct: %s", i, respWire[i], respDirect[i])
		}
	}
	var snapWire, snapDirect bytes.Buffer
	if err := srv.Store().Snapshot(&snapWire); err != nil {
		t.Fatal(err)
	}
	if err := direct.Snapshot(&snapDirect); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapWire.Bytes(), snapDirect.Bytes()) {
		t.Errorf("store snapshots diverged: wire %d bytes, direct %d bytes",
			snapWire.Len(), snapDirect.Len())
	}
}

func TestPipelinedConcurrentCallersShareOneConn(t *testing.T) {
	addr, srv := startServer(t)
	conn := dialOpts(t, addr, client.Options{})
	for i := 1; i <= 16; i++ {
		if err := conn.Upload(matchEntryForTest(uint32(i), "b", int64(i*5))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				if g%2 == 0 {
					// Each response must echo its own query; the client
					// verifies QueryID and would report a desync.
					if _, err := conn.Query(profile.ID(1+(g+i)%16), 3); err != nil {
						errs <- fmt.Errorf("query (g=%d i=%d): %w", g, i, err)
						return
					}
				} else {
					x := big.NewInt(int64(1000 + g*100 + i))
					got, err := conn.Evaluate(x)
					if err != nil {
						errs <- fmt.Errorf("oprf (g=%d i=%d): %w", g, i, err)
						return
					}
					want, err := testOPRF(t).Evaluate(x)
					if err != nil {
						errs <- err
						return
					}
					if got.Cmp(want) != 0 {
						errs <- fmt.Errorf("oprf misroute: g=%d i=%d", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := srv.Metrics()
	if got := m.PipelinedConns.Load(); got != 1 {
		t.Errorf("pipelined_conns = %d, want 1 (every caller shares the conn)", got)
	}
	if got := m.TotalConns.Load(); got != 1 {
		t.Errorf("total_conns = %d, want 1", got)
	}
}

func TestPipelinedOutOfOrderUnderFaultsNeverMisroutes(t *testing.T) {
	// Chaos: fragment and delay the transport under TLS so frames arrive
	// in dribbles while many requests are in flight; responses then
	// complete in essentially arbitrary order. Every OPRF answer is
	// checked against a local evaluation of the same input and every
	// query against the known nearest neighbor — a single misrouted
	// response fails loudly.
	addr, _ := startServer(t)
	conn := dialOpts(t, addr, client.Options{
		MaxInFlight: 16,
		Dialer: func(network, address string) (net.Conn, error) {
			raw, err := net.DialTimeout(network, address, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return netfault.New(raw, netfault.Faults{
				MaxWriteChunk: 7,
				ChunkDelay:    200 * time.Microsecond,
				ReadDelay:     300 * time.Microsecond,
			}), nil
		},
	})
	// Isolated per-user buckets make each query's answer unambiguous:
	// user 2i-1 and 2i share bucket i, so each sees exactly its partner.
	for i := 1; i <= 16; i++ {
		bucket := fmt.Sprintf("pair-%d", (i+1)/2)
		if err := conn.Upload(matchEntryForTest(uint32(i), bucket, int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	partner := func(id profile.ID) profile.ID {
		if id%2 == 1 {
			return id + 1
		}
		return id - 1
	}
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 12; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				switch g % 2 {
				case 0:
					id := profile.ID(1 + (g*6+i)%16)
					results, err := conn.Query(id, 2)
					if err != nil {
						errs <- fmt.Errorf("query g=%d i=%d: %w", g, i, err)
						return
					}
					if len(results) != 1 || results[0].ID != partner(id) {
						errs <- fmt.Errorf("query %d misrouted: got %+v, want partner %d", id, results, partner(id))
						return
					}
				default:
					x := big.NewInt(int64(77000 + g*1000 + i))
					got, err := conn.Evaluate(x)
					if err != nil {
						errs <- fmt.Errorf("oprf g=%d i=%d: %w", g, i, err)
						return
					}
					want, _ := testOPRF(t).Evaluate(x)
					if got.Cmp(want) != 0 {
						errs <- fmt.Errorf("oprf response misrouted: g=%d i=%d", g, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPipelinedErrorFramesStayPerRequest(t *testing.T) {
	// On a pipelined connection a failing request (unknown user) must
	// produce an error for that caller only; the connection and every
	// other in-flight request keep working.
	addr, _ := startServer(t)
	conn := dialOpts(t, addr, client.Options{MaxRetries: -1})
	if err := conn.Upload(matchEntryForTest(1, "b", 5)); err != nil {
		t.Fatal(err)
	}
	if err := conn.Upload(matchEntryForTest(2, "b", 6)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if g%2 == 0 {
					if _, err := conn.Query(999, 3); err == nil {
						errs <- fmt.Errorf("query for unknown user succeeded")
						return
					}
				} else {
					if _, err := conn.Query(1, 3); err != nil {
						errs <- fmt.Errorf("healthy query failed beside erroring ones: %w", err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestPipelinedGracefulDrain(t *testing.T) {
	// Shutdown while pipelined requests are in flight: every accepted
	// request gets its response before the connection closes.
	srv, err := New(Config{OPRF: testOPRF(t), ReadTimeout: 5 * time.Second, DrainTimeout: 3 * time.Second})
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
	conn := dialOpts(t, a.String(), client.Options{MaxRetries: -1})
	for i := 1; i <= 4; i++ {
		if err := conn.Upload(matchEntryForTest(uint32(i), "b", int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Saturate the connection with slow-ish OPRF work, then shut down
	// mid-flight.
	var wg sync.WaitGroup
	results := make(chan error, 24)
	for g := 0; g < 24; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, err := conn.Evaluate(big.NewInt(int64(31 + g)))
			results <- err
		}(g)
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	close(results)
	// Requests either completed (response written during drain) or failed
	// with a connection error (arrived after the drain boundary); what
	// must never happen is a hang or a misrouted response.
	completed := 0
	for err := range results {
		if err == nil {
			completed++
		}
	}
	if completed == 0 {
		t.Error("no request completed across a graceful drain")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
}
