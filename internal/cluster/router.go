// The router: a server role that stores nothing. It terminates client
// v2 connections (including the OPRF exchange — the router's OPRF key
// is the cluster's key), forwards uploads and removes to the partition
// owning the bucket, scatters queries, and relays push subscriptions
// from the owning partition through each client connection's
// single-writer choke point.
//
// Placement is by bucket, and matching is a within-bucket computation,
// so on a healthy cluster a scattered query succeeds on exactly one
// partition — the merge is a pass-through, byte-identical to a
// single-node store holding the same entries. The real merge logic
// (concatenate in partition order, dedupe by user ID) only earns its
// keep mid-rebalance, when an entry can transiently exist on two nodes.
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
	// Map is the initial partition map. Required.
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

	mapMu sync.RWMutex
	pm    *PartitionMap

	connMu sync.Mutex
	conns  map[string]*client.Conn // node ID -> upstream conn (lazily dialed)

	// active[p] is the index into Replicas(p) currently serving the
	// partition. It advances past a dead leader onto its caught-up
	// follower — promotion, from the router's point of view.
	active sync.Map // partition uint32 -> *atomic.Int32

	// ownerHint remembers which partition last acknowledged a user's
	// upload (profile.ID -> partition uint32). A re-upload whose bucket
	// hash moved partitions uses it to remove the stale entry from the
	// old owner with one targeted op instead of a scatter.
	ownerHint sync.Map

	// rebalMu is the rebalance write fence: mutations (upload, batch
	// upload, remove) hold it shared, Rebalance holds it exclusively.
	// With writers quiesced, the entries Rebalance copies cannot be
	// overwritten mid-move and no write can land on a moving partition
	// and be stranded on the old owner. Queries never take the fence —
	// they stay live (and correct, see Rebalance) throughout.
	rebalMu sync.RWMutex
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
	rt := &Router{cfg: cfg, pm: cfg.Map, conns: make(map[string]*client.Conn)}
	if m := cfg.Metrics; m != nil {
		m.RegisterGauge("router_partitions", func() any {
			pm := rt.Map()
			return map[string]any{
				"map_version": pm.Version,
				"partitions":  pm.NumPartitions,
				"nodes":       len(pm.Nodes),
			}
		})
	}
	return rt, nil
}

// Map returns the current partition map.
func (rt *Router) Map() *PartitionMap {
	rt.mapMu.RLock()
	defer rt.mapMu.RUnlock()
	return rt.pm
}

// Register swaps the mutation and query handlers of a server's registry
// for the router's forwarders and installs the partition-map op. The
// server keeps serving OPRF locally — the router is the cluster's key
// authority; bucket keys are h(Kup) under ITS key, which is exactly
// what makes ownership consistent no matter which node stores a bucket.
// Wire the server's Config.RemoteSubscriber to rt.Subscribe separately
// (it is a server construction-time option).
func (rt *Router) Register(srv *server.Server) {
	svc := srv.Service()
	svc.Register(wire.TypeUploadReq, rt.handleUpload)
	svc.Register(wire.TypeUploadBatchReq, rt.handleUploadBatch)
	svc.Register(wire.TypeRemoveReq, rt.handleRemove)
	svc.Register(wire.TypeQueryReq, rt.handleQuery)
	svc.Register(wire.TypePartitionMapReq, rt.handleMapReq)
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

func (rt *Router) activeIdx(part uint32) *atomic.Int32 {
	v, _ := rt.active.LoadOrStore(part, new(atomic.Int32))
	return v.(*atomic.Int32)
}

// forward sends one already-encoded request to the partition's active
// replica, failing over (and sticking) to the next replica on transport
// failure. A server-reported error (wire error frame on a healthy
// stream) is returned as-is: the node answered, so failing over would
// just re-ask a healthy cluster the same question.
func (rt *Router) forward(part uint32, t wire.MsgType, payload []byte, want wire.MsgType) ([]byte, error) {
	reps := rt.Map().Replicas(part)
	idx := rt.activeIdx(part)
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
	rt.rebalMu.RLock()
	defer rt.rebalMu.RUnlock()
	req, err := wire.DecodeUploadReq(payload)
	if err != nil {
		return 0, nil, err
	}
	part := rt.Map().PartitionOf(req.KeyHash)
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
	pm := rt.Map()
	ownerNode := pm.Owner(owner).ID
	defer rt.ownerHint.Store(id, owner)
	if prev, ok := rt.ownerHint.Load(id); ok {
		if p := prev.(uint32); p != owner && pm.Owner(p).ID != ownerNode {
			rt.removeAt(p, id)
		}
		return
	}
	for _, p := range distinctOwners(pm) {
		if pm.Owner(p).ID != ownerNode {
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
	rt.rebalMu.RLock()
	defer rt.rebalMu.RUnlock()
	req, err := wire.DecodeUploadBatchReq(payload)
	if err != nil {
		return 0, nil, err
	}
	pm := rt.Map()
	byPart := make(map[uint32][]int)
	for i := range req.Entries {
		p := pm.PartitionOf(req.Entries[i].KeyHash)
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
	rt.rebalMu.RLock()
	defer rt.rebalMu.RUnlock()
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
		// The hint lied (e.g. the router restarted mid-move); fall
		// through to the scatter.
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
// store's own tie-break key), covering the transient mid-rebalance
// window where an entry exists on two nodes.
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

// handleMapReq serves the current partition map (empty body when the
// requester's version is already current).
func (rt *Router) handleMapReq(payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodePartitionMapReq(payload)
	if err != nil {
		return 0, nil, err
	}
	pm := rt.Map()
	out := wire.PartitionMapResp{Version: pm.Version}
	if pm.Version != req.HaveVersion {
		out.Map = pm.Encode()
	}
	return wire.TypePartitionMapResp, out.AppendEncode(resp), nil
}

// scatter sends one request to every distinct owner node concurrently
// (one representative partition per node, ascending partition order).
// resps[i] is non-nil where node i answered successfully; errs[i] holds
// its failure otherwise.
func (rt *Router) scatter(t wire.MsgType, payload []byte, want wire.MsgType) (resps [][]byte, errs []error) {
	parts := distinctOwners(rt.Map())
	resps = make([][]byte, len(parts))
	errs = make([]error, len(parts))
	var wg sync.WaitGroup
	for i, p := range parts {
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
// concatenated in ascending partition order, deduplicated by user ID.
// Returns nil when no partition succeeded.
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
	part := rt.Map().PartitionOf(req.KeyHash)
	reps := rt.Map().Replicas(part)
	cur := int(rt.activeIdx(part).Load()) % len(reps)
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

// Rebalance moves bucket ownership to a new map generation. The
// ordering is what makes it safe under live traffic:
//
//  1. Mutations are fenced for the duration (uploads and removes block
//     on rebalMu until the rebalance completes; queries never block).
//     With writers quiesced, a copy below cannot race an overwrite, and
//     no write can land on a moving partition and be stranded on the
//     old owner or reverted to an older dumped version.
//  2. For every partition whose owner changed, the new owner pulls the
//     partition's entries off the old owner page by page (ordinary
//     journaled uploads on the receiving side). Nothing is removed yet:
//     until the flip, queries route by the old map, whose owner still
//     holds every bucket. Entries transiently exist on both nodes,
//     which the query merge's dedup covers — and the two copies are
//     byte-identical, because writes are fenced.
//  3. The router flips to the new map. At that instant every new owner
//     holds a complete, current copy of its moved partitions, so
//     queries are correct on both sides of the flip.
//  4. Only then are the moved entries removed from their old owners —
//     queries no longer route there, so the removals are invisible.
//     A cleanup failure leaves duplicates, never a gap; the error names
//     the node so the operator can retry the drop.
func (rt *Router) Rebalance(next *PartitionMap) error {
	if err := next.Validate(); err != nil {
		return err
	}
	old := rt.Map()
	if next.Version <= old.Version {
		return fmt.Errorf("cluster: rebalance to version %d behind current %d", next.Version, old.Version)
	}
	if next.NumPartitions != old.NumPartitions {
		return errors.New("cluster: rebalance cannot change the partition count")
	}
	rt.rebalMu.Lock()
	defer rt.rebalMu.Unlock()
	type moved struct {
		from Node
		ids  []profile.ID
	}
	var moves []moved
	for p := uint32(0); p < old.NumPartitions; p++ {
		from, to := old.Owner(p), next.Owner(p)
		if from.ID == to.ID {
			continue
		}
		ids, err := rt.copyPartition(p, from, to)
		if err != nil {
			return fmt.Errorf("cluster: copying partition %d %s -> %s: %w", p, from.ID, to.ID, err)
		}
		moves = append(moves, moved{from, ids})
	}
	rt.mapMu.Lock()
	rt.pm = next
	rt.mapMu.Unlock()
	// Active-replica indices refer to the old map's replica orderings.
	rt.active.Range(func(k, _ any) bool { rt.active.Delete(k); return true })
	rt.cfg.Logf("cluster: partition map flipped to version %d", next.Version)
	var cleanupErr error
	for _, mv := range moves {
		if err := rt.dropMoved(mv.from, mv.ids); err != nil {
			rt.cfg.Logf("cluster: dropping moved entries from %s: %v (stale duplicates remain until retried)", mv.from.ID, err)
			if cleanupErr == nil {
				cleanupErr = fmt.Errorf("cluster: map flipped to version %d, but dropping moved entries from %s failed: %w", next.Version, mv.from.ID, err)
			}
		}
	}
	return cleanupErr
}

// copyPartition streams one partition's entries old owner -> new owner,
// leaving the old owner's copy in place, and returns the copied user
// IDs for the post-flip cleanup. The caller holds the write fence, so
// the dump is a consistent, complete listing of the partition.
func (rt *Router) copyPartition(p uint32, from, to Node) ([]profile.ID, error) {
	src, err := rt.getConn(from)
	if err != nil {
		return nil, err
	}
	dst, err := rt.getConn(to)
	if err != nil {
		return nil, err
	}
	pm := rt.Map()
	var ids []profile.ID
	cursor := uint32(0)
	for {
		req := wire.PartitionDumpReq{Partition: p, Partitions: pm.NumPartitions, Cursor: cursor, MaxEntries: wire.MaxUploadBatch}
		payload, err := src.Forward(wire.TypePartitionDumpReq, req.AppendEncode(nil), wire.TypePartitionDumpResp, true)
		if err != nil {
			return nil, err
		}
		resp, err := wire.DecodePartitionDumpResp(payload)
		if err != nil {
			return nil, err
		}
		if len(resp.Entries) > 0 {
			batch := wire.UploadBatchReq{Entries: make([]wire.UploadReq, len(resp.Entries))}
			pageIDs := make([]profile.ID, len(resp.Entries))
			for i, raw := range resp.Entries {
				u, err := wire.DecodeUploadReq(raw)
				if err != nil {
					return nil, fmt.Errorf("dump entry %d: %w", i, err)
				}
				batch.Entries[i] = *u
				pageIDs[i] = u.ID
			}
			ackPayload, err := dst.Forward(wire.TypeUploadBatchReq, batch.AppendEncode(nil), wire.TypeUploadBatchResp, true)
			if err != nil {
				return nil, err
			}
			ack, err := wire.DecodeUploadBatchResp(ackPayload)
			if err != nil {
				return nil, err
			}
			for i, status := range ack.Status {
				if status != "" {
					return nil, fmt.Errorf("new owner rejected entry for user %d: %s", pageIDs[i], status)
				}
			}
			ids = append(ids, pageIDs...)
			if m := rt.cfg.Metrics; m != nil {
				m.RebalanceMoves.Add(uint64(len(pageIDs)))
			}
		}
		if !resp.More {
			return ids, nil
		}
		cursor = resp.NextCursor
	}
}

// dropMoved removes the copied entries from a moved partition's old
// owner. Runs after the map flip: queries route to the new owner by
// then, so each remove is invisible to them.
func (rt *Router) dropMoved(from Node, ids []profile.ID) error {
	src, err := rt.getConn(from)
	if err != nil {
		return err
	}
	for _, id := range ids {
		rm := wire.RemoveReq{ID: id}
		if _, err := src.Forward(wire.TypeRemoveReq, rm.AppendEncode(nil), wire.TypeRemoveResp, true); err != nil && !errors.Is(err, client.ErrServer) {
			return err
		}
	}
	return nil
}
