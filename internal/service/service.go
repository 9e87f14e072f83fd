// Package service is the S-MATCH request-processing layer: one typed
// handler per wire operation, each self-contained — decode the payload,
// validate it, journal the mutation, apply it to the store, encode the
// response — and each carrying its own metrics observation (operation
// counter, latency histogram, in-flight gauge).
//
// The package is transport-agnostic on purpose: a handler maps a request
// payload to a response frame (type + payload) or an error, and never
// touches a connection. The server's session engine (a reader goroutine,
// a bounded worker pool executing handlers concurrently, and a single
// writer serializing responses) is the registry's one caller outside
// tests.
package service

import (
	"fmt"
	"sync/atomic"
	"time"

	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/wire"
)

// Journal is the durability hook a mutation handler runs before touching
// the store: Begin pins the journal-then-apply pair against the
// checkpoint barrier, the Append* methods make the record durable. A nil
// Journal in Deps disables journaling (memory-only serving).
// internal/server's Journal implements it.
type Journal interface {
	Begin() func()
	AppendUploadBatch([]*wire.UploadReq) error
	AppendRemove(profile.ID) error
}

// Publisher receives every successfully applied mutation, after the store
// accepted it — the hook push-based matching fans out from. A Publisher
// must never block: apply latency is on the ack path.
// internal/broker's Broker implements it. A nil Publisher in Deps
// disables publishing.
type Publisher interface {
	PublishRecord(match.Record)
	PublishRemove(profile.ID)
}

// Deps carries everything a handler may need. Store and OPRF are
// required; Journal may be nil; Metrics may be nil (a private registry is
// created so recording is always safe); Publisher may be nil.
type Deps struct {
	Store     *match.Server
	OPRF      *oprf.Server
	Journal   Journal
	Metrics   *metrics.Registry
	Publisher Publisher
	// MaxTopK caps the per-query result count a client may request.
	// Zero means 100.
	MaxTopK int
}

// Handler processes one decoded-off-the-wire request payload and returns
// the response frame. An error means the request failed (the transport
// reports it as an error frame); the connection itself is never the
// handler's concern.
//
// Buffer contract (DESIGN §16): payload is transport-owned and valid only
// for the duration of the call — a handler that retains decoded bytes
// past its return must copy them. resp is a transport-owned appendable
// buffer (it may carry reserved frame-header bytes); the handler appends
// its encoded response and returns the extended slice — or resp unchanged
// for an empty response. On error the returned slice is ignored.
type Handler func(payload, resp []byte) (wire.MsgType, []byte, error)

// Registry maps message types to their handlers.
type Registry struct {
	deps     Deps
	handlers map[wire.MsgType]Handler
}

// New builds the registry with every protocol operation installed.
func New(deps Deps) (*Registry, error) {
	if deps.Store == nil {
		return nil, fmt.Errorf("service: nil store")
	}
	if deps.OPRF == nil {
		return nil, fmt.Errorf("service: nil OPRF evaluator")
	}
	if deps.Metrics == nil {
		deps.Metrics = metrics.New()
	}
	if deps.MaxTopK == 0 {
		deps.MaxTopK = 100
	}
	r := &Registry{deps: deps, handlers: make(map[wire.MsgType]Handler)}
	m := deps.Metrics
	r.handlers[wire.TypeUploadReq] = instrument(&m.Uploads, &m.UploadLatency, &m.UploadsInFlight, r.upload)
	r.handlers[wire.TypeUploadBatchReq] = gauge(&m.UploadsInFlight, r.uploadBatch)
	r.handlers[wire.TypeRemoveReq] = instrument(&m.Removes, &m.RemoveLatency, &m.RemovesInFlight, r.remove)
	r.handlers[wire.TypeQueryReq] = instrument(&m.Matches, &m.MatchLatency, &m.MatchesInFlight, r.query)
	r.handlers[wire.TypeOPRFKeyReq] = r.oprfKey
	r.handlers[wire.TypeOPRFBatchReq] = instrument(&m.OPRFEvals, &m.OPRFLatency, &m.OPRFInFlight, r.oprfBatch)
	return r, nil
}

// Register installs (or replaces) the handler for one message type.
// This is the cluster hook: a leader adds TypeReplicatePull* handlers, a
// router swaps the mutation/query handlers for forwarders that fan out
// to partition owners — both without the registry growing cluster
// knowledge. Not safe to call once the registry is serving traffic;
// register everything before Serve.
func (r *Registry) Register(t wire.MsgType, h Handler) {
	r.handlers[t] = h
}

// Handle routes one request to its handler. Unknown types are an error,
// exactly like the pre-service dispatch switch's default arm.
func (r *Registry) Handle(t wire.MsgType, payload, resp []byte) (wire.MsgType, []byte, error) {
	h, ok := r.handlers[t]
	if !ok {
		return 0, nil, fmt.Errorf("%w: %d", wire.ErrBadType, t)
	}
	return h(payload, resp)
}

// instrument wraps a handler with the standard per-op observation:
// in-flight gauge up for the duration, then count + latency on the way
// out (errors count too, matching the historical dispatch behavior).
func instrument(counter *atomic.Uint64, hist *metrics.Histogram, inflight *atomic.Int64, h Handler) Handler {
	return func(payload, resp []byte) (wire.MsgType, []byte, error) {
		inflight.Add(1)
		start := time.Now()
		defer func() {
			inflight.Add(-1)
			counter.Add(1)
			hist.Observe(time.Since(start))
		}()
		return h(payload, resp)
	}
}

// gauge wraps a handler with only the in-flight gauge; the batch-upload
// handler records its own counters (per-entry uploads, per-frame batch
// size) and must not be double-counted.
func gauge(inflight *atomic.Int64, h Handler) Handler {
	return func(payload, resp []byte) (wire.MsgType, []byte, error) {
		inflight.Add(1)
		defer inflight.Add(-1)
		return h(payload, resp)
	}
}

// newRecord builds the store's record straight from an upload's wire
// bytes. This is the validation step: a record NewRecord accepts is one
// the store files, so the journal only ever holds records that replay.
func newRecord(u *wire.UploadReq) (match.Record, error) {
	return match.NewRecord(u.ID, u.KeyHash, uint(u.CtBits), int(u.NumAttrs), u.Chain, u.Auth)
}

// upload: decode → build the record → journal → apply → publish → ack.
func (r *Registry) upload(payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeUploadReq(payload)
	if err != nil {
		return 0, nil, err
	}
	rec, err := newRecord(req)
	if err != nil {
		return 0, nil, err
	}
	if err := r.put([]*wire.UploadReq{req}, []match.Record{rec}); err != nil {
		return 0, nil, err
	}
	return wire.TypeUploadResp, resp, nil
}

// put is the write path both upload handlers share: journal reqs as one
// batch, then file and publish recs, the records built from them, in
// order. Each handler keeps its own metrics.
func (r *Registry) put(reqs []*wire.UploadReq, recs []match.Record) error {
	if j := r.deps.Journal; j != nil {
		release := j.Begin()
		defer release()
		if err := j.AppendUploadBatch(reqs); err != nil {
			return err
		}
	}
	for _, rec := range recs {
		r.deps.Store.Put(rec)
		if p := r.deps.Publisher; p != nil {
			p.PublishRecord(rec)
		}
	}
	return nil
}

// uploadBatch: build every entry's record up front; invalid ones get a
// per-entry status while the valid remainder is journaled (one
// group-committed fsync for the whole batch) and applied, exactly as if
// uploaded one frame at a time.
func (r *Registry) uploadBatch(payload, respBuf []byte) (wire.MsgType, []byte, error) {
	m := r.deps.Metrics
	start := time.Now()
	req, err := wire.DecodeUploadBatchReq(payload)
	if err != nil {
		return 0, nil, err
	}
	resp := wire.UploadBatchResp{Status: make([]string, len(req.Entries))}
	recs := make([]match.Record, 0, len(req.Entries))
	valid := make([]*wire.UploadReq, 0, len(req.Entries))
	for i := range req.Entries {
		rec, verr := newRecord(&req.Entries[i])
		if verr != nil {
			resp.Status[i] = verr.Error()
			continue
		}
		recs = append(recs, rec)
		valid = append(valid, &req.Entries[i])
	}
	if len(valid) > 0 {
		if err := r.put(valid, recs); err != nil {
			return 0, nil, err
		}
		m.Uploads.Add(uint64(len(recs)))
	}
	m.UploadBatches.Add(1)
	m.UploadBatchSize.ObserveValue(int64(len(req.Entries)))
	m.UploadLatency.Observe(time.Since(start))
	return wire.TypeUploadBatchResp, resp.AppendEncode(respBuf), nil
}

// remove: journal → apply → ack. A remove of an unknown user errors to
// the client; the journal record it may have left is harmless — replay
// ignores it.
func (r *Registry) remove(payload, resp []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeRemoveReq(payload)
	if err != nil {
		return 0, nil, err
	}
	if j := r.deps.Journal; j != nil {
		release := j.Begin()
		defer release()
		if err := j.AppendRemove(req.ID); err != nil {
			return 0, nil, err
		}
	}
	if err := r.deps.Store.Remove(req.ID); err != nil {
		return 0, nil, err
	}
	if p := r.deps.Publisher; p != nil {
		p.PublishRemove(req.ID)
	}
	return wire.TypeRemoveResp, resp, nil
}

// query: kNN or MAX-distance matching, result count capped at MaxTopK.
func (r *Registry) query(payload, respBuf []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeQueryReq(payload)
	if err != nil {
		return 0, nil, err
	}
	var results []match.Result
	switch req.Mode {
	case wire.ModeMaxDistance:
		results, err = r.deps.Store.MatchMaxDistance(req.ID, req.MaxDist)
		if err != nil {
			return 0, nil, err
		}
		if len(results) > r.deps.MaxTopK {
			results = results[:r.deps.MaxTopK]
		}
	default:
		k := int(req.TopK)
		if k > r.deps.MaxTopK {
			k = r.deps.MaxTopK
		}
		if results, err = r.deps.Store.Match(req.ID, k); err != nil {
			return 0, nil, err
		}
	}
	resp := wire.QueryResp{QueryID: req.QueryID, Timestamp: time.Now().Unix(), Results: results}
	return wire.TypeQueryResp, resp.AppendEncode(respBuf), nil
}

// oprfKey serves the evaluator's public key for client bootstrap.
func (r *Registry) oprfKey(_, respBuf []byte) (wire.MsgType, []byte, error) {
	pk := r.deps.OPRF.PublicKey()
	resp := wire.OPRFKeyResp{N: pk.N, E: uint32(pk.E)}
	return wire.TypeOPRFKeyResp, resp.AppendEncode(respBuf), nil
}

// oprfBatch evaluates the blinded elements of one OPRF round; the decoder
// enforces wire.MaxOPRFBatch.
func (r *Registry) oprfBatch(payload, respBuf []byte) (wire.MsgType, []byte, error) {
	req, err := wire.DecodeOPRFBatchReq(payload)
	if err != nil {
		return 0, nil, err
	}
	ys, err := r.deps.OPRF.EvaluateBatch(req.Xs)
	if err != nil {
		return 0, nil, err
	}
	resp := wire.OPRFBatchResp{Ys: ys}
	return wire.TypeOPRFBatchResp, resp.AppendEncode(respBuf), nil
}
