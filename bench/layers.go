package main

// The per-layer cells of the traced run. Each replays a sample of the
// run's own requests against one layer's exported functions in isolation,
// after the load phases, on the workload's own (now idle) system: wire
// codecs, service handlers, the match store, the WAL, the broker, the
// cluster hop, the client crypto steps, and the paper's homoPM baseline.
// Every mutation a cell makes it also undoes through the same journaled
// path, so the end-of-run state checks still hold.

import (
	"fmt"
	"math"
	"math/big"
	"path/filepath"
	"runtime"
	"time"

	"smatch/internal/broker"
	"smatch/internal/client"
	"smatch/internal/homopm"
	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/service"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

// cellInput is the sample a workload hands the cells.
type cellInput struct {
	sc                    *scheme
	rig                   *rig
	storage               *node                 // the node whose handlers and store are called directly
	queries               []wire.QueryReq       // reads of existing users on storage, in the workload's mix
	entries               []match.Entry         // records that exist on storage; uploading one again changes nothing
	temps                 []match.Entry         // records of users that do not exist, in buckets storage owns
	fresh                 func(int) match.Entry // j-th record of a throwaway population, for heap sizing
	profiles              []profile.Profile     // device users, for the crypto replays
	deviceQ               []profile.ID          // registered device users, for the homoPM comparison's S-MATCH side
	dev                   deviceStats
	dir                   string // scratch directory
	homoN, homoCandidates int    // homoPM: profiles encrypted, candidates matched
	homoBits              int    // homoPM: Paillier modulus size
	walTail               int    // WAL cell: bytes of log the tail read lies behind
}

type layerMetrics map[string]float64

// passNs times fn over n items, reps times, and returns the median
// nanoseconds per item: single calls are too short to time alone.
func passNs(n, reps int, fn func(i int) error) (float64, error) {
	xs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, err
			}
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(xs), nil
}

// medianUs times every call of fn and returns the median in µs.
func medianUs(n int, fn func(i int) error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(start).Nanoseconds())/1e3)
	}
	return median(xs), nil
}

func removePayload(id profile.ID) []byte { r := wire.RemoveReq{ID: id}; return r.Encode() }

func uploadPayloads(es []match.Entry) [][]byte {
	out := make([][]byte, len(es))
	for i, e := range es {
		u := uploadReqOf(e)
		out[i] = u.Encode()
	}
	return out
}

// handle calls a service handler the way the transport does.
func handle(reg *service.Registry, t wire.MsgType, payload []byte) ([]byte, error) {
	_, resp, err := reg.Handle(t, payload, nil)
	return resp, err
}

const codecReps = 21

// wireCell replays the sample's request and response bodies through the
// append codecs.
func wireCell(in cellInput, out layerMetrics) (queryPayloads, queryResps [][]byte, err error) {
	ups := make([]wire.UploadReq, len(in.entries))
	for i, e := range in.entries {
		ups[i] = uploadReqOf(e)
	}
	nq, nu := len(in.queries), len(ups)
	queryPayloads, queryResps = make([][]byte, nq), make([][]byte, nq)
	upPayloads := make([][]byte, nu)
	resps := make([]*wire.QueryResp, nq)
	reg := in.storage.srv.Service()
	for i := range in.queries {
		queryPayloads[i] = in.queries[i].Encode()
		if queryResps[i], err = handle(reg, wire.TypeQueryReq, queryPayloads[i]); err != nil {
			return nil, nil, err
		}
		if resps[i], err = wire.DecodeQueryResp(queryResps[i]); err != nil {
			return nil, nil, err
		}
	}
	for i := range ups {
		upPayloads[i] = ups[i].Encode()
	}
	var buf []byte
	reqEncode := func(i int) error {
		if i < nq {
			buf = in.queries[i].AppendEncode(buf[:0])
		} else {
			buf = ups[i-nq].AppendEncode(buf[:0])
		}
		return nil
	}
	reqDecode := func(i int) (err error) {
		if i < nq {
			_, err = wire.DecodeQueryReq(queryPayloads[i])
		} else {
			_, err = wire.DecodeUploadReq(upPayloads[i-nq])
		}
		return err
	}
	respEncode := func(i int) error { buf = resps[i].AppendEncode(buf[:0]); return nil }
	respDecode := func(i int) error { _, err := wire.DecodeQueryResp(queryResps[i]); return err }
	for _, c := range []struct {
		name string
		n    int
		fn   func(int) error
	}{{"wire.req_encode_ns", nq + nu, reqEncode}, {"wire.req_decode_ns", nq + nu, reqDecode},
		{"wire.resp_encode_ns", nq, respEncode}, {"wire.resp_decode_ns", nq, respDecode}} {
		if out[c.name], err = passNs(c.n, codecReps, c.fn); err != nil {
			return nil, nil, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < nq; i++ {
		_ = reqEncode(i)
		_ = reqDecode(i)
		_ = respEncode(i)
		_ = respDecode(i)
	}
	runtime.ReadMemStats(&after)
	out["wire.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / float64(nq)
	return queryPayloads, queryResps, nil
}

// serviceCell calls the node's own handlers, no transport.
func serviceCell(in cellInput, queryPayloads [][]byte, out layerMetrics) (err error) {
	reg := in.storage.srv.Service()
	temps := uploadPayloads(in.temps)
	if out["service.query_us"], err = medianUs(len(queryPayloads), func(i int) error {
		_, err := handle(reg, wire.TypeQueryReq, queryPayloads[i])
		return err
	}); err != nil {
		return err
	}
	if out["service.upload_us"], err = medianUs(len(temps), func(i int) error {
		_, err := handle(reg, wire.TypeUploadReq, temps[i])
		return err
	}); err != nil {
		return err
	}
	removeTemps := func(i int) error {
		_, err := handle(reg, wire.TypeRemoveReq, removePayload(in.temps[i].ID))
		return err
	}
	if out["service.remove_us"], err = medianUs(len(temps), removeTemps); err != nil {
		return err
	}
	batch := wire.UploadBatchReq{}
	for i := 0; i < len(in.temps) && i < batchSize; i++ {
		batch.Entries = append(batch.Entries, uploadReqOf(in.temps[i]))
	}
	payload := batch.Encode()
	out["service.upload_batch_us"], err = medianUs(5, func(int) error {
		if _, err := handle(reg, wire.TypeUploadBatchReq, payload); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i := range batch.Entries {
		if err := removeTemps(i); err != nil {
			return err
		}
	}
	return nil
}

// matchCell calls the store directly with the run's IDs.
func matchCell(in cellInput, out layerMetrics) (err error) {
	st := in.storage.store
	if out["match.knn_us"], err = medianUs(len(in.queries), func(i int) error {
		_, err := st.Match(in.queries[i].ID, topK)
		return err
	}); err != nil {
		return err
	}
	if out["match.maxdist_us"], err = medianUs(len(in.queries), func(i int) error {
		d := in.queries[i].MaxDist
		if d == nil {
			d = new(big.Int).Lsh(big.NewInt(1), 56) // about 1 % of a bucket either side
		}
		_, err := st.MatchMaxDistance(in.queries[i].ID, d)
		return err
	}); err != nil {
		return err
	}
	if out["match.upload_us"], err = medianUs(len(in.temps), func(i int) error { return st.Upload(in.temps[i]) }); err != nil {
		return err
	}
	if out["match.remove_us"], err = medianUs(len(in.temps), func(i int) error { return st.Remove(in.temps[i].ID) }); err != nil {
		return err
	}
	out["match.bucket_max"] = float64(st.BucketStats().Max)

	const sizing = 2000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fresh := match.NewServer()
	for j := 0; j < sizing; j++ {
		if err := fresh.Upload(in.fresh(j)); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	out["match.bytes_per_user"] = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / sizing
	runtime.KeepAlive(fresh)
	return nil
}

// echoNode answers every request at once with a canned response, so a
// round trip to it costs what the transport alone costs: TLS, framing,
// syscalls, scheduling and the client's own codec work.
func echoNode(oprfSrv *oprf.Server, queryPayloads, queryResps [][]byte) (*node, error) {
	canned := make(map[string][]byte, len(queryPayloads))
	for i, p := range queryPayloads {
		canned[string(p[16:])] = queryResps[i] // everything after query ID and timestamp
	}
	empty := func(t wire.MsgType) service.Handler {
		return func(_, resp []byte) (wire.MsgType, []byte, error) { return t, resp, nil }
	}
	return startNode(server.Config{OPRF: oprfSrv}, func(srv *server.Server) {
		svc := srv.Service()
		svc.Register(wire.TypeQueryReq, func(payload, resp []byte) (wire.MsgType, []byte, error) {
			c, ok := canned[string(payload[16:])]
			if !ok {
				return 0, nil, fmt.Errorf("echo: unknown query")
			}
			resp = append(resp, payload[:8]...) // the client checks the query ID
			return wire.TypeQueryResp, append(resp, c[8:]...), nil
		})
		svc.Register(wire.TypeUploadReq, empty(wire.TypeUploadResp))
		svc.Register(wire.TypeRemoveReq, empty(wire.TypeRemoveResp))
	})
}

func query(c *client.Conn, q wire.QueryReq) error {
	var err error
	if q.Mode == wire.ModeMaxDistance {
		_, err = c.QueryMaxDistance(q.ID, q.MaxDist)
	} else {
		_, err = c.Query(q.ID, int(q.TopK))
	}
	return err
}

// readTrips and writeTrips measure the sample's ops one in flight on each
// of conns, taking turns op by op so that drift in the machine's speed
// falls on all alike: the median round trip per connection, in µs.
func readTrips(in cellInput, conns ...*client.Conn) ([]float64, error) {
	return turns(len(in.queries), conns, func(c *client.Conn, i int) error { return query(c, in.queries[i]) }, nil)
}

// writeTrips times the uploads; each is removed again, untimed.
func writeTrips(in cellInput, conns ...*client.Conn) ([]float64, error) {
	return turns(len(in.temps), conns, func(c *client.Conn, i int) error { return c.Upload(in.temps[i]) },
		func(c *client.Conn, i int) error { return c.Remove(in.temps[i].ID) })
}

func turns(n int, conns []*client.Conn, op, undo func(c *client.Conn, i int) error) ([]float64, error) {
	samples := make([][]float64, len(conns))
	for i := -n / 10; i < n; i++ { // the first tenth again, as warm-up
		for j, c := range conns {
			start := time.Now()
			if err := op(c, (i+n)%n); err != nil {
				return nil, err
			}
			if i >= 0 {
				samples[j] = append(samples[j], float64(time.Since(start).Nanoseconds())/1e3)
			}
			if undo != nil {
				if err := undo(c, (i+n)%n); err != nil {
					return nil, err
				}
			}
		}
	}
	out := make([]float64, len(conns))
	for j, xs := range samples {
		out[j] = median(xs)
	}
	return out, nil
}

// transportCell measures the run's ops one at a time against the real
// node and against the echo node, and closes the budget: the echo round
// trip plus the handler's own time should add up to the real round trip.
func transportCell(in cellInput, queryPayloads, queryResps [][]byte, out layerMetrics) error {
	echo, err := echoNode(in.sc.oprfSrv, queryPayloads, queryResps)
	if err != nil {
		return err
	}
	defer echo.stop()
	ec, err := dialWarm(echo.addr, nil)
	if err != nil {
		return err
	}
	defer ec.Close()
	rc, err := dialWarm(in.storage.addr, nil)
	if err != nil {
		return err
	}
	defer rc.Close()
	// The handler's share is its own histogram's mean over these very
	// round trips: in the replay loop of the service cell the handler runs
	// with warm caches, behind a socket it does not.
	handler := func(h *metrics.Histogram) func() float64 {
		us, n := histTotal(h)
		return func() float64 {
			us2, n2 := histTotal(h)
			return (us2 - us) / (n2 - n)
		}
	}
	matchUs := handler(&in.storage.reg.MatchLatency)
	read, err := readTrips(in, rc, ec)
	if err != nil {
		return err
	}
	out["budget.read_handler_us"] = matchUs()
	uploadUs := handler(&in.storage.reg.UploadLatency)
	up, err := writeTrips(in, rc, ec)
	if err != nil {
		return err
	}
	out["budget.write_handler_us"] = uploadUs()
	out["server.transport_residual_us"] = read[1]
	out["budget.read_gap_pct"] = 100 * math.Abs(read[1]+out["budget.read_handler_us"]-read[0]) / read[0]
	out["budget.write_gap_pct"] = 100 * math.Abs(up[1]+out["budget.write_handler_us"]-up[0]) / up[0]
	out["budget.read_rtt_us"], out["budget.write_rtt_us"] = read[0], up[0]
	return nil
}

// walCell appends the sample's journal records to a WAL of its own, then
// recovers from it. It returns the median time of the plain journaled
// upload handler, the baseline replication's ack wait is measured from.
func walCell(in cellInput, out layerMetrics) (plainUploadUs float64, err error) {
	dir := filepath.Join(in.dir, "walcell")
	reg := metrics.New()
	w, err := wal.Open(wal.Options{Dir: dir, Metrics: reg})
	if err != nil {
		return 0, err
	}
	payloads := uploadPayloads(in.entries)
	var userBytes int
	records := make([][]byte, len(payloads))
	for i, p := range payloads {
		records[i] = append([]byte{1}, p...) // the journal's upload record: op code, then the request
		userBytes += len(p)
	}
	if out["wal.append_us"], err = medianUs(len(records), func(i int) error { _, err := w.Append(records[i]); return err }); err != nil {
		w.Close()
		return 0, err
	}
	out["wal.bytes_per_user_byte"] = float64(reg.WALAppendedBytes.Load()) / float64(userBytes)
	// In-situ group-commit numbers when the workload's node journals;
	// this cell's own (one appender, so no batching) otherwise.
	src := reg
	if in.storage.journal != nil {
		src = in.storage.reg
	}
	appends := float64(src.WALAppends.Load())
	out["wal.fsyncs_per_op"] = float64(src.WALFsyncs.Load()) / appends
	out["wal.fsync_mean_us"] = src.WALFsyncLatency.Snapshot().MeanUS
	out["wal.batch_mean"] = src.WALBatchSize.ValueSnapshot().Mean

	plain, err := service.New(service.Deps{Store: match.NewServer(), OPRF: in.sc.oprfSrv, Journal: server.NewJournal(w)})
	if err != nil {
		w.Close()
		return 0, err
	}
	temps := uploadPayloads(in.temps)
	plainUploadUs, err = medianUs(len(temps), func(i int) error { _, err := handle(plain, wire.TypeUploadReq, temps[i]); return err })
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	start := time.Now()
	j, _, _, err := server.OpenJournal(wal.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	out["wal.recover_s"] = time.Since(start).Seconds()
	if err := j.Close(); err != nil {
		return 0, err
	}
	out["wal.tail_read_us"], err = tailRead(filepath.Join(in.dir, "waltail"), records, in.walTail)
	return plainUploadUs, err
}

// tailRead prices one follower pull the way a shipped leader serves it:
// WAL.ReadFrom of the newest record, with tailBytes of the run's records
// before it in a segment of the default size. ReadFrom reads and parses
// the whole segment file, so the cost grows with the tail; cluster_mixed
// itself bounds it with small segments (clusterSegment in rig.go), and
// this number is where a leaner ReadFrom shows at the default. A
// production run reads behind 8 MiB: what a leader taking the benchmark's
// open-loop cluster writes (about 100 a second of 550 bytes) holds midway
// between two of smatch-server's five-minute checkpoints.
func tailRead(dir string, records [][]byte, tailBytes int) (float64, error) {
	w, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	defer w.Close()
	var last uint64
	for size := 0; size < tailBytes; {
		lsns, err := w.AppendBatch(records)
		if err != nil {
			return 0, err
		}
		last = lsns[len(lsns)-1]
		for _, r := range records {
			size += len(r)
		}
	}
	return medianUs(9, func(int) error {
		recs, err := w.ReadFrom(last, 1)
		if err == nil && len(recs) != 1 {
			err = fmt.Errorf("ReadFrom(%d) returned %d records", last, len(recs))
		}
		return err
	})
}

// brokerCell publishes the sample to a broker holding the standing
// probes' worth of subscriptions, and times a push end to end on the
// workload's own system.
func brokerCell(in cellInput, out layerMetrics) (err error) {
	bk := broker.New(broker.Config{})
	far := new(big.Int).Lsh(big.NewInt(1), 60)
	for k := 0; k < standingSub; k++ {
		e := in.entries[k%len(in.entries)]
		if _, err := bk.Subscribe(broker.Probe{KeyHash: e.KeyHash, OrderSum: e.Chain.OrderSum(), MaxDist: far}, nil); err != nil {
			return err
		}
	}
	if out["broker.publish_us"], err = medianUs(len(in.entries), func(i int) error { bk.PublishUpsert(in.entries[i]); return nil }); err != nil {
		return err
	}

	conn := in.rig.conns[0]
	all := new(big.Int).Lsh(big.NewInt(1), 80) // beyond any order sum: every upload into the bucket notifies
	sub, err := conn.Subscribe(in.temps[0], all, len(in.temps))
	if err != nil {
		return err
	}
	var delivery []float64
	for _, e := range in.temps {
		e.KeyHash = in.temps[0].KeyHash
		start := time.Now()
		if err := conn.Upload(e); err != nil {
			return err
		}
		select {
		case n, ok := <-sub.C:
			if !ok || n.ID != e.ID {
				return fmt.Errorf("broker cell: expected a push for user %d", e.ID)
			}
			delivery = append(delivery, time.Since(start).Seconds()*1e3)
		case <-time.After(5 * time.Second):
			return fmt.Errorf("broker cell: no push for user %d", e.ID)
		}
	}
	if err := sub.Unsubscribe(); err != nil {
		return err
	}
	for _, e := range in.temps {
		if err := conn.Remove(e.ID); err != nil {
			return err
		}
	}
	out["broker.delivery_p50_ms"] = median(delivery)
	out["broker.notifies_sent"] = float64(in.rig.front.reg.NotifiesSent.Load())
	out["broker.notifies_dropped"] = float64(in.rig.front.reg.NotifiesDropped.Load())
	return nil
}

// clusterCell prices the router: the same ops routed and sent straight to
// the owning leader. Workloads without a cluster get a small one of
// their own, loaded with the sample.
func clusterCell(in cellInput, plainUploadUs float64, out layerMetrics) error {
	cr := in.rig
	if cr.router == nil {
		var err error
		if cr, err = newClusterRig(in.sc.oprfSrv, filepath.Join(in.dir, "clustercell"), nil); err != nil {
			return err
		}
		defer cr.close()
		if err := cr.dial(1); err != nil {
			return err
		}
		for at := 0; at < len(in.entries); at += wire.MaxUploadBatch {
			if _, err := cr.conns[0].UploadBatch(in.entries[at:min(at+wire.MaxUploadBatch, len(in.entries))]); err != nil {
				return err
			}
		}
	}
	// One leader's share of the sample, so one direct connection serves.
	leader := cr.nodes[0]
	own := in
	own.queries, own.temps = nil, nil
	where := make(map[profile.ID][]byte, len(in.entries))
	for _, e := range in.entries {
		where[e.ID] = e.KeyHash
	}
	for _, q := range in.queries {
		if kh, ok := where[q.ID]; ok && cr.leaderOf(kh) == leader {
			own.queries = append(own.queries, q)
		}
	}
	for _, e := range in.temps {
		if cr.leaderOf(e.KeyHash) == leader {
			own.temps = append(own.temps, e)
		}
	}
	if len(own.queries) == 0 || len(own.temps) == 0 {
		return fmt.Errorf("cluster cell: the sample has nothing on %s", "leader-a")
	}
	direct, err := dialWarm(leader.addr, nil)
	if err != nil {
		return err
	}
	defer direct.Close()
	reg := cr.front.reg
	before := routerCounts(reg)
	read, err := readTrips(own, cr.conns[0], direct)
	if err != nil {
		return err
	}
	reads := routerCounts(reg)
	up, err := writeTrips(own, cr.conns[0], direct)
	if err != nil {
		return err
	}
	writes := routerCounts(reg)
	nReads := float64(len(own.queries) + len(own.queries)/10) // with the warm-up
	out["cluster.partitions_per_query"] = (reads.forwards - before.forwards) / nReads
	out["cluster.forwards_per_op"] = (writes.forwards - before.forwards) / (nReads + 2*float64(len(own.temps)))
	out["cluster.fanout_mean_us"] = (reads.fanoutUs - before.fanoutUs) / (reads.fanouts - before.fanouts)
	var lag uint64
	for _, rep := range cr.reps {
		lag += rep.LagStats()["lag_records"]
	}
	out["cluster.repl_lag_records"] = float64(lag)
	out["cluster.router_hop_us"] = read[0] - read[1]
	out["cluster.router_hop_write_us"] = up[0] - up[1]

	temps := uploadPayloads(own.temps)
	lreg := leader.srv.Service()
	syncUs, err := medianUs(len(temps), func(i int) error { _, err := handle(lreg, wire.TypeUploadReq, temps[i]); return err })
	if err != nil {
		return err
	}
	for _, e := range own.temps {
		if _, err := handle(lreg, wire.TypeRemoveReq, removePayload(e.ID)); err != nil {
			return err
		}
	}
	out["cluster.repl_ack_wait_us"] = syncUs - plainUploadUs
	return nil
}

// routerCount is a reading of the router's counters.
type routerCount struct{ forwards, fanouts, fanoutUs float64 }

func routerCounts(reg *metrics.Registry) routerCount {
	us, n := histTotal(&reg.RouterFanoutLatency)
	return routerCount{forwards: float64(reg.RouterForwards.Load()), fanouts: n, fanoutUs: us}
}

// histTotal is a latency histogram's sum (µs) and count: its buckets are
// powers of two, so only differences of these make a usable mean.
func histTotal(h *metrics.Histogram) (us, n float64) {
	s := h.Snapshot()
	return s.MeanUS * float64(s.Count), float64(s.Count)
}

// cryptoCell replays the steps Keygen is made of, which the device cell
// can only span as one.
func cryptoCell(in cellInput, out layerMetrics) (err error) {
	pk := in.sc.oprfSrv.PublicKey()
	n := len(in.profiles)
	if out["keygen.fuzzy_us"], err = medianUs(n, func(i int) error { _, err := in.sc.gen.FuzzyVector(in.profiles[i]); return err }); err != nil {
		return err
	}
	reqs := make([]*oprf.Request, n)
	ys := make([]*big.Int, n)
	if out["oprf.blind_us"], err = medianUs(n, func(i int) (err error) {
		seed := deviceSecret(uint64(i), i) // 32 bytes, the size of a key seed
		reqs[i], err = oprf.Blind(pk, seed, nil)
		return err
	}); err != nil {
		return err
	}
	if out["oprf.server_eval_us"], err = medianUs(n, func(i int) (err error) {
		ys[i], err = in.sc.oprfSrv.Evaluate(reqs[i].Blinded())
		return err
	}); err != nil {
		return err
	}
	out["oprf.finalize_us"], err = medianUs(n, func(i int) error { _, err := reqs[i].Finalize(ys[i]); return err })
	return err
}

// homopmCell runs the paper's baseline on the device cell's users and
// divides its client, server and wire cost by S-MATCH's from this run.
func homopmCell(in cellInput, out layerMetrics) error {
	d := in.sc.ds.Schema.NumAttrs()
	hs, err := homopm.NewSystem(64, d, in.homoBits)
	if err != nil {
		return err
	}
	dev, err := in.sc.sys.NewClient(in.sc.oprfSrv, deviceSecret(0, 0))
	if err != nil {
		return err
	}
	sv := homopm.NewServer(hs.PublicKey())
	ctBytes := func(cts []*big.Int) (n int) {
		for _, c := range cts {
			n += len(c.Bytes())
		}
		return n
	}
	var encProfile, encQuery, matchMs, rank []float64
	var ups []homopm.Upload
	var wireBytes float64
	values := make([][]*big.Int, in.homoN)
	for i := 0; i < in.homoN; i++ {
		if values[i], err = dev.InitData(in.profiles[i]); err != nil {
			return err
		}
		start := time.Now()
		up, err := hs.EncryptProfile(in.profiles[i].ID, values[i])
		if err != nil {
			return err
		}
		encProfile = append(encProfile, time.Since(start).Seconds()*1e3)
		ups = append(ups, up)
	}
	for c := 0; c < in.homoCandidates+1; c++ { // the querier is skipped, so one more
		if err := sv.Store(homopm.Upload{ID: profile.ID(c + 1), Cts: ups[c%len(ups)].Cts}); err != nil {
			return err
		}
	}
	for i := 0; i < in.homoN; i++ {
		start := time.Now()
		q, err := hs.EncryptQuery(profile.ID(1), values[i])
		if err != nil {
			return err
		}
		encQuery = append(encQuery, time.Since(start).Seconds()*1e3)
		if i >= 2 {
			continue // two server and rank rounds are enough: their work does not depend on the values
		}
		start = time.Now()
		aggs, err := sv.Match(q)
		if err != nil {
			return err
		}
		matchMs = append(matchMs, time.Since(start).Seconds()*1e3)
		start = time.Now()
		if _, err := hs.Rank(q, aggs, topK); err != nil {
			return err
		}
		rank = append(rank, time.Since(start).Seconds()*1e3)
		wireBytes = float64(ctBytes(ups[i].Cts) + ctBytes(q.Cts))
		for _, a := range aggs {
			wireBytes += 4 + float64(len(a.Ct.Bytes()))
		}
	}
	out["homopm.client_ms"] = median(encProfile) + median(encQuery) + median(rank)
	out["homopm.server_ms_per_candidate"] = median(matchMs) / float64(in.homoCandidates)
	out["homopm.wire_bytes"] = wireBytes

	// S-MATCH's side, from this run: a register plus a verified find on
	// the device; the handler answering that find; the bytes of both.
	front := in.rig.front.srv.Service()
	smatchServerUs, err := medianUs(len(in.deviceQ), func(i int) error {
		q := wire.QueryReq{QueryID: uint64(i), ID: in.deviceQ[i], TopK: topK}
		_, err := handle(front, wire.TypeQueryReq, q.Encode())
		return err
	})
	if err != nil {
		return err
	}
	out["homopm.client_ratio"] = out["homopm.client_ms"] / (median(in.dev.register) + median(in.dev.find))
	out["homopm.server_ratio"] = median(matchMs) / (smatchServerUs / 1e3)
	out["homopm.wire_ratio"] = wireBytes / (in.dev.registerWire + in.dev.findWire)
	return nil
}

// runCells runs every cell and returns the per-layer metrics they yield.
func runCells(in cellInput) (layerMetrics, error) {
	out := layerMetrics{}
	qp, qr, err := wireCell(in, out)
	if err != nil {
		return nil, fmt.Errorf("wire cell: %w", err)
	}
	if err := serviceCell(in, qp, out); err != nil {
		return nil, fmt.Errorf("service cell: %w", err)
	}
	if err := matchCell(in, out); err != nil {
		return nil, fmt.Errorf("match cell: %w", err)
	}
	if err := transportCell(in, qp, qr, out); err != nil {
		return nil, fmt.Errorf("transport cell: %w", err)
	}
	plainUploadUs, err := walCell(in, out)
	if err != nil {
		return nil, fmt.Errorf("wal cell: %w", err)
	}
	if err := brokerCell(in, out); err != nil {
		return nil, fmt.Errorf("broker cell: %w", err)
	}
	if err := clusterCell(in, plainUploadUs, out); err != nil {
		return nil, fmt.Errorf("cluster cell: %w", err)
	}
	if err := cryptoCell(in, out); err != nil {
		return nil, fmt.Errorf("crypto cell: %w", err)
	}
	if err := homopmCell(in, out); err != nil {
		return nil, fmt.Errorf("homopm cell: %w", err)
	}
	return out, nil
}
