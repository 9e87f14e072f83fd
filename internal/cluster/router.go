// The router: a server role that stores nothing. It terminates client
// v2 connections (including the OPRF exchange — the router's OPRF key
// is the cluster's key), forwards uploads and removes to the partition
// owning the bucket, scatters queries, and relays push subscriptions
// from the owning partition through each client connection's
// single-writer choke point.
//
// Placement is by bucket on a partition map fixed for the router's life,
// and matching is a within-bucket computation, so on a healthy cluster a
// scattered query succeeds on exactly one partition — the merge is a
// pass-through, byte-identical to a single-node store holding the same
// entries. The real merge logic (concatenate in partition order, dedupe
// by user ID) only earns its keep while a re-keyed user briefly exists
// on two nodes: its upload landed on the new owner and the stale copy's
// remove has not yet.
package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/client"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/wire"
)

// RouterConfig wires a router.
type RouterConfig struct {
	// Map is the partition map, fixed for the router's life. Required.
	Map *PartitionMap
	// ClientOptions tune the router's upstream connections to partition
	// nodes.
	ClientOptions client.Options
	// Metrics receives router counters and gauges; nil disables.
	Metrics *metrics.Registry
	// Logf receives router log lines; nil disables.
	Logf func(format string, args ...any)
}

// Router fans client operations out over the partition nodes.
type Router struct {
	cfg RouterConfig
	pm  *PartitionMap

	// replicas[p] is pm.Replicas(p), computed once: the map never changes.
	replicas [][]Node
	// owners holds one partition per distinct leader node, ascending —
	// the fan-out set of a scatter (see distinctOwners).
	owners []uint32
	// active[p] is the index into replicas[p] currently serving the
	// partition. It advances past a dead leader onto its caught-up
	// follower — promotion, from the router's point of view.
	active []atomic.Int32

	connMu sync.Mutex
	conns  map[string]*client.Conn // node ID -> upstream conn (lazily dialed)

	// ownerHint remembers which partition last acknowledged a user's
	// upload (profile.ID -> partition uint32). A re-upload whose bucket
	// hash moved partitions uses it to remove the stale entry from the
	// old owner with one targeted op instead of a scatter.
	ownerHint sync.Map
}

// NewRouter builds a router over a validated partition map. Upstream
// connections are dialed lazily on first use, so a router can start
// before its nodes.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Map == nil {
		return nil, errors.New("cluster: router needs a partition map")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, err
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	pm := cfg.Map
	rt := &Router{
		cfg:      cfg,
		pm:       pm,
		replicas: make([][]Node, pm.NumPartitions),
		owners:   distinctOwners(pm),
		active:   make([]atomic.Int32, pm.NumPartitions),
		conns:    make(map[string]*client.Conn),
	}
	for p := range rt.replicas {
		rt.replicas[p] = pm.Replicas(uint32(p))
	}
	if m := cfg.Metrics; m != nil {
		m.RegisterGauge("router_partitions", func() any {
			return map[string]any{"partitions": pm.NumPartitions, "nodes": len(pm.Nodes)}
		})
	}
	return rt, nil
}

// Register swaps the mutation and query handlers of a server's registry
// for the router's forwarders. The server keeps serving OPRF locally —
// the router is the cluster's key authority; bucket keys are h(Kup)
// under ITS key, which is exactly what makes ownership consistent no
// matter which node stores a bucket.
// Wire the server's Config.RemoteSubscriber to rt.Subscribe separately
// (it is a server construction-time option).
func (rt *Router) Register(srv *server.Server) {
	svc := srv.Service()
	svc.Register(wire.TypeUploadReq, rt.handleUpload)
	svc.Register(wire.TypeUploadBatchReq, rt.handleUploadBatch)
	svc.Register(wire.TypeRemoveReq, rt.handleRemove)
	svc.Register(wire.TypeQueryReq, rt.handleQuery)
}

// Close tears down every upstream connection.
func (rt *Router) Close() {
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	for _, c := range rt.conns {
		c.Close()
	}
	rt.conns = make(map[string]*client.Conn)
}

// getConn returns (dialing if needed) the upstream connection to a node.
func (rt *Router) getConn(n Node) (*client.Conn, error) {
	rt.connMu.Lock()
	defer rt.connMu.Unlock()
	if c, ok := rt.conns[n.ID]; ok {
		return c, nil
	}
	c, err := client.Dial(n.Addr, rt.cfg.ClientOptions)
	if err != nil {
		return nil, err
	}
	rt.conns[n.ID] = c
	return c, nil
}

// forward sends one already-encoded request to the partition's active
// replica, failing over (and sticking) to the next replica on transport
// failure. A server-reported error (wire error frame on a healthy
// stream) is returned as-is: the node answered, so failing over would
// just re-ask a healthy cluster the same question.
func (rt *Router) forward(part uint32, t wire.MsgType, payload []byte, want wire.MsgType) ([]byte, error) {
	reps := rt.replicas[part]
	idx := &rt.active[part]
	start := int(idx.Load()) % len(reps)
	var lastErr error
	for i := 0; i < len(reps); i++ {
		cur := (start + i) % len(reps)
		if i > 0 {
			if m := rt.cfg.Metrics; m != nil {
				m.RouterRetries.Add(1)
			}
		}
		conn, err := rt.getConn(reps[cur])
		if err != nil {
			lastErr = err
			continue
		}
		// idempotent=true even for uploads: server-side Upload is an
		// upsert and Remove converges, so re-sending after an ambiguous
		// transport failure cannot change the final state.
		resp, err := conn.Forward(t, payload, want, true)
		if err == nil {
			if cur != start {
				idx.Store(int32(cur))
				rt.cfg.Logf("cluster: partition %d failed over to %s", part, reps[cur].ID)
			}
			if m := rt.cfg.Metrics; m != nil {
				m.RouterForwards.Add(1)
			}
			return resp, nil
		}
		if errors.Is(err, client.ErrServer) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("cluster: partition %d unreachable on all replicas: %w", part, lastErr)
}

// handleUpload forwards an upload to the bucket's owner, then clears
// any stale copy of the user from the partition that previously owned
// them (a re-key moves the bucket hash, and with it the partition).
func (rt *Router) handleUpload(payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeUploadReq(payload)
	if err != nil {
		return 0, nil, err
	}
	part := rt.pm.PartitionOf(req.KeyHash)
	fwd, err := rt.forward(part, wire.TypeUploadReq, payload, wire.TypeUploadResp)
	if err != nil {
		return 0, nil, err
	}
	rt.cleanupMovedUser(req.ID, part)
	return wire.TypeUploadResp, append(resp, fwd...), nil
}

// cleanupMovedUser removes user id from whichever NODE other than the
// new owner's may still hold a previous upload. With a hint, at most one
// targeted remove; without one (fresh router), a scatter that tolerates
// unknown-user answers. The unit here is the node, not the partition: a
// store is per-node, so a same-node bucket move is already covered by
// the store's own full-record upsert, and a remove aimed at any
// partition of a node drops the user from that whole node. Runs on the
// upload path so a re-keyed user is never visible on two nodes after
// their upload is acknowledged — the same invariant a single node's
// upsert provides.
func (rt *Router) cleanupMovedUser(id profile.ID, owner uint32) {
	ownerNode := rt.replicas[owner][0].ID
	defer rt.ownerHint.Store(id, owner)
	if prev, ok := rt.ownerHint.Load(id); ok {
		if p := prev.(uint32); p != owner && rt.replicas[p][0].ID != ownerNode {
			rt.removeAt(p, id)
		}
		return
	}
	for _, p := range rt.owners {
		if rt.replicas[p][0].ID != ownerNode {
			rt.removeAt(p, id)
		}
	}
}

// distinctOwners returns one representative partition per distinct owner
// node, in ascending partition order — the fan-out set for node-level
// operations (remove, query scatter). Hitting every partition would hit
// nodes owning several partitions once per partition, which for removes
// is not just wasteful but wrong.
func distinctOwners(pm *PartitionMap) []uint32 {
	seen := make(map[string]bool, len(pm.Nodes))
	parts := make([]uint32, 0, len(pm.Nodes))
	for p := uint32(0); p < pm.NumPartitions; p++ {
		if id := pm.Owner(p).ID; !seen[id] {
			seen[id] = true
			parts = append(parts, p)
		}
	}
	return parts
}

// removeAt issues a best-effort remove of id on one partition;
// unknown-user answers (the overwhelmingly common case) are expected.
func (rt *Router) removeAt(part uint32, id profile.ID) {
	req := wire.RemoveReq{ID: id}
	if _, err := rt.forward(part, wire.TypeRemoveReq, req.AppendEncode(nil), wire.TypeRemoveResp); err != nil && !errors.Is(err, client.ErrServer) {
		rt.cfg.Logf("cluster: stale-entry remove of user %d on partition %d: %v", id, part, err)
	}
}

// handleUploadBatch splits a batch by owning partition, forwards each
// sub-batch, and stitches the per-entry statuses back into request
// order — the client sees exactly the response a single node would have
// produced.
func (rt *Router) handleUploadBatch(payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeUploadBatchReq(payload)
	if err != nil {
		return 0, nil, err
	}
	byPart := make(map[uint32][]int)
	for i := range req.Entries {
		p := rt.pm.PartitionOf(req.Entries[i].KeyHash)
		byPart[p] = append(byPart[p], i)
	}
	out := wire.UploadBatchResp{Status: make([]string, len(req.Entries))}
	for part, idxs := range byPart {
		sub := wire.UploadBatchReq{Entries: make([]wire.UploadReq, len(idxs))}
		for j, i := range idxs {
			sub.Entries[j] = req.Entries[i]
		}
		respPayload, err := rt.forward(part, wire.TypeUploadBatchReq, sub.AppendEncode(nil), wire.TypeUploadBatchResp)
		if err != nil {
			for _, i := range idxs {
				out.Status[i] = err.Error()
			}
			continue
		}
		sr, err := wire.DecodeUploadBatchResp(respPayload)
		if err != nil || len(sr.Status) != len(idxs) {
			for _, i := range idxs {
				out.Status[i] = "cluster: malformed sub-batch response"
			}
			continue
		}
		for j, i := range idxs {
			out.Status[i] = sr.Status[j]
			if sr.Status[j] == "" {
				rt.cleanupMovedUser(req.Entries[i].ID, part)
			}
		}
	}
	return wire.TypeUploadBatchResp, out.AppendEncode(resp), nil
}

// handleRemove routes a remove: to the hinted owner when known,
// otherwise a scatter across all partitions — the remove request
// carries only the user ID, and only the owning partition can succeed.
func (rt *Router) handleRemove(payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeRemoveReq(payload)
	if err != nil {
		return 0, nil, err
	}
	if prev, ok := rt.ownerHint.Load(req.ID); ok {
		fwd, err := rt.forward(prev.(uint32), wire.TypeRemoveReq, payload, wire.TypeRemoveResp)
		if err == nil {
			rt.ownerHint.Delete(req.ID)
			return wire.TypeRemoveResp, append(resp, fwd...), nil
		}
		if !errors.Is(err, client.ErrServer) {
			return 0, nil, err
		}
		// The hint lied (e.g. the user was removed through another
		// router); fall through to the scatter.
	}
	resps, errs := rt.scatter(wire.TypeRemoveReq, payload, wire.TypeRemoveResp)
	for _, fwd := range resps {
		if fwd != nil {
			rt.ownerHint.Delete(req.ID)
			return wire.TypeRemoveResp, append(resp, fwd...), nil
		}
	}
	return 0, nil, firstErr(errs)
}

// handleQuery routes a matching query. The queried user's bucket — and
// every candidate in it — lives on one partition, so the hinted path is
// a single forward; the scatter path succeeds on exactly one node in a
// healthy cluster. Responses are merged deterministically all the same:
// results concatenated in partition order, deduplicated by user ID (the
// store's own tie-break key), covering the window in which a re-keyed
// user exists on two nodes until cleanupMovedUser's remove lands.
func (rt *Router) handleQuery(payload, resp []byte) (wire.MsgType, []byte, error) {
	start := time.Now()
	defer func() {
		if m := rt.cfg.Metrics; m != nil {
			m.RouterFanoutLatency.Observe(time.Since(start))
		}
	}()
	req, err := wire.DecodeQueryReq(payload)
	if err != nil {
		return 0, nil, err
	}
	if prev, ok := rt.ownerHint.Load(req.ID); ok {
		fwd, err := rt.forward(prev.(uint32), wire.TypeQueryReq, payload, wire.TypeQueryResp)
		if err == nil {
			return wire.TypeQueryResp, append(resp, fwd...), nil
		}
		if !errors.Is(err, client.ErrServer) {
			return 0, nil, err
		}
	}
	resps, errs := rt.scatter(wire.TypeQueryReq, payload, wire.TypeQueryResp)
	merged, err := mergeQueryResps(resps)
	if err != nil {
		return 0, nil, err
	}
	if merged == nil {
		return 0, nil, firstErr(errs)
	}
	return wire.TypeQueryResp, merged.AppendEncode(resp), nil
}

// scatter sends one request to every distinct owner node concurrently
// (one representative partition per node, ascending partition order).
// resps[i] is non-nil where node i answered successfully; errs[i] holds
// its failure otherwise.
func (rt *Router) scatter(t wire.MsgType, payload []byte, want wire.MsgType) (resps [][]byte, errs []error) {
	resps = make([][]byte, len(rt.owners))
	errs = make([]error, len(rt.owners))
	var wg sync.WaitGroup
	for i, p := range rt.owners {
		wg.Add(1)
		go func(i int, p uint32) {
			defer wg.Done()
			resps[i], errs[i] = rt.forward(p, t, payload, want)
		}(i, p)
	}
	wg.Wait()
	if m := rt.cfg.Metrics; m != nil {
		m.RouterScatters.Add(1)
	}
	return resps, errs
}

// mergeQueryResps combines scattered query responses: results
// concatenated in ascending partition order, deduplicated by user ID —
// a re-keyed upload can leave the user on two nodes until
// cleanupMovedUser's remove of the stale copy lands. Returns nil when no
// partition succeeded.
func mergeQueryResps(resps [][]byte) (*wire.QueryResp, error) {
	var out *wire.QueryResp
	seen := make(map[profile.ID]bool)
	for _, payload := range resps {
		if payload == nil {
			continue
		}
		resp, err := wire.DecodeQueryResp(payload)
		if err != nil {
			return nil, err
		}
		if out == nil {
			out = &wire.QueryResp{QueryID: resp.QueryID, Timestamp: resp.Timestamp}
		}
		for _, r := range resp.Results {
			if !seen[r.ID] {
				seen[r.ID] = true
				out.Results = append(out.Results, r)
			}
		}
	}
	return out, nil
}

// firstErr returns the first non-nil error (lowest partition index) so
// the reported failure is deterministic.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return errors.New("cluster: no partition answered")
}

// Subscribe implements server.Config.RemoteSubscriber: the standing
// probe is registered on the partition owning the probed bucket, and
// its notify stream is relayed through deliver — which writes under the
// client connection's single-writer choke point. Upstream server-side
// drops and router-side buffer drops are both folded into the Dropped
// count, preserving the client's seq == i + dropped invariant.
//
// If the upstream connection breaks, the relay ends: the subscription
// is dead and the subscriber stops hearing notifications until it
// re-subscribes (documented in DESIGN §17 — the router does not
// re-register standing probes across a promotion, because the new
// leader's notification sequence numbers would not continue the old
// one's).
func (rt *Router) Subscribe(req *wire.SubscribeReq, deliver func(wire.MatchNotify) bool) (cancel func(), err error) {
	ch, err := req.ProbeChain()
	if err != nil {
		return nil, err
	}
	part := rt.pm.PartitionOf(req.KeyHash)
	reps := rt.replicas[part]
	cur := int(rt.active[part].Load()) % len(reps)
	conn, err := rt.getConn(reps[cur])
	if err != nil {
		return nil, err
	}
	sub, err := conn.Subscribe(match.Entry{KeyHash: req.KeyHash, Chain: ch}, req.MaxDist, 256)
	if err != nil {
		return nil, err
	}
	go func() {
		for n := range sub.C {
			msg := wire.MatchNotify{
				Seq:     n.Seq,
				Dropped: n.Dropped + sub.LocalDropped(),
				Event:   n.Event,
				ID:      n.ID,
				Auth:    n.Auth,
			}
			if !deliver(msg) {
				sub.Unsubscribe()
				return
			}
		}
	}()
	return func() { sub.Unsubscribe() }, nil
}
