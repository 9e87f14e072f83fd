package main

// The three server workloads: one zipf-community population, three
// systems under it (memory-only node, WAL-backed node, routed cluster)
// and three op mixes. The schedule is stateless: op i's kind, target and
// payload follow from (seed, i), and ID ranges keep concurrent ops off
// the same user, so no scheduled op can fail.

import (
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/cluster"
	"smatch/internal/match"
	"smatch/internal/oprf"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

const (
	opKnn5 = iota
	opKnn50
	opMaxDist
	opUpload   // a new user
	opReupload // an existing user into a different bucket
	opBatch    // UploadBatch of batchSize new users, one op
	opRemove
	numOpKinds
)

var opNames = [numOpKinds]string{"knn5", "knn50", "maxdist", "upload", "reupload", "batch", "remove"}

const (
	batchSize   = 64
	batchIDBase = 1 << 28 // batch users' IDs, clear of single uploads
	tempIDBase  = 1 << 29 // users the layer cells create and remove again
	deviceBase  = 1 << 30 // the device cell's users
	standingSub = 32      // Subscribe probes riding the churn connections
	hotBuckets  = 10
	checkEvery  = 100 // every checkEvery-th read is compared with the oracle
)

// serveSpec is what distinguishes the three workloads.
type serveSpec struct {
	name    string
	mix     [numOpKinds]int // per 20 ops
	stable  float64         // share of preloaded users reads may target, never mutated
	movable float64         // share re-uploads cycle through; the rest is removable
	wal     bool
	cluster bool
	subs    bool
	rate    float64 // open-loop rate, ops/s
}

var serveSpecs = map[string]serveSpec{
	"serve_read":    {name: "serve_read", mix: [numOpKinds]int{opKnn5: 14, opKnn50: 4, opMaxDist: 2}, stable: 1, rate: rateRead},
	"serve_churn":   {name: "serve_churn", mix: [numOpKinds]int{opUpload: 7, opReupload: 4, opBatch: 2, opRemove: 3, opKnn5: 4}, stable: 0.6, movable: 0.1, wal: true, subs: true, rate: rateChurn},
	"cluster_mixed": {name: "cluster_mixed", mix: [numOpKinds]int{opKnn5: 16, opUpload: 3, opRemove: 1}, stable: 0.8, wal: true, cluster: true, rate: rateCluster},
}

// ack is one acknowledged mutation, the benchmark's record of what the
// system promised to keep.
type ack struct {
	op      uint64
	id      uint32
	comm    int32
	version uint32
	alive   bool
}

type serve struct {
	spec  serveSpec
	seed  uint64
	pop   *population
	base  *oracle // the preloaded population; exact for serve_read, sanity elsewhere
	mix   pattern
	rig   *rig
	exact bool // the store is static, so sampled reads are compared in flight

	nStable, nMovable, nRemovable uint64

	mu       sync.Mutex
	acks     []ack
	checked  atomic.Int64
	mismatch atomic.Int64
	notified atomic.Int64
	subWG    sync.WaitGroup
}

// setupServe generates the population, starts the system and preloads it.
func setupServe(spec serveSpec, seed uint64, users, comms int, oprfSrv *oprf.Server, dir string) (*serve, error) {
	s := &serve{spec: spec, seed: seed, exact: !spec.wal,
		pop: newPopulation(seed, users, comms), mix: newPattern(seed, spec.mix[:])}
	s.nStable = uint64(float64(users) * spec.stable)
	s.nMovable = uint64(float64(users) * spec.movable)
	s.nRemovable = uint64(users) - s.nStable - s.nMovable
	s.base = newOracle(comms)
	for id := uint32(1); id <= uint32(users); id++ {
		s.base.add(id, s.pop.commOf(id, 0, -1), s.pop.orderSum(id, 0))
	}
	s.base.seal()

	var err error
	switch {
	case spec.cluster:
		// The router starts with no owner hints: reads of preloaded users
		// scatter, reads of users uploaded during the run forward by
		// hint, and both paths are measured.
		var pm *cluster.PartitionMap
		if pm, err = ownership(); err == nil {
			s.rig, err = newClusterRig(oprfSrv, dir, func(leaderID string, n *node) error {
				return s.journaledLoad(n, func(kh []byte) bool { return pm.OwnerOf(kh).ID == leaderID })
			})
		}
	case spec.wal:
		if s.rig, err = newSingleRig(oprfSrv, nil, dir); err == nil {
			if err = s.journaledLoad(s.rig.front, func([]byte) bool { return true }); err != nil {
				s.rig.close()
			}
		}
	default:
		store := match.NewServer()
		for id := uint32(1); id <= uint32(users) && err == nil; id++ {
			err = store.Upload(s.pop.entry(id, s.pop.commOf(id, 0, -1), 0))
		}
		if err == nil {
			s.rig, err = newSingleRig(oprfSrv, store, "")
		}
	}
	if err != nil {
		return nil, err
	}
	if err := s.rig.dial(nproc()); err != nil {
		s.rig.close()
		return nil, err
	}
	if spec.subs {
		if err := s.subscribe(); err != nil {
			s.rig.close()
			return nil, err
		}
	}
	return s, nil
}

// journaledLoad puts the preloaded users for which keep holds into n the
// way the upload-batch handler does (journal a batch, one group-committed
// fsync, then apply it), without TLS in the way and without a semi-sync
// leader's wait for followers that do not exist yet.
func (s *serve) journaledLoad(n *node, keep func(keyHash []byte) bool) error {
	var reqs []wire.UploadReq
	var entries []match.Entry
	flush := func() error {
		if len(reqs) == 0 {
			return nil
		}
		ptrs := make([]*wire.UploadReq, len(reqs))
		for i := range reqs {
			ptrs[i] = &reqs[i]
		}
		release := n.journal.Begin()
		defer release()
		if err := n.journal.AppendUploadBatch(ptrs); err != nil {
			return err
		}
		for _, e := range entries {
			if err := n.store.Upload(e); err != nil {
				return err
			}
		}
		reqs, entries = reqs[:0], entries[:0]
		return nil
	}
	for id := uint32(1); id <= uint32(s.pop.n); id++ {
		c := s.pop.commOf(id, 0, -1)
		if !keep(s.pop.hashes[c]) {
			continue
		}
		e := s.pop.entry(id, c, 0)
		reqs, entries = append(reqs, uploadReqOf(e)), append(entries, e)
		if len(reqs) == wire.MaxUploadBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

func uploadReqOf(e match.Entry) wire.UploadReq {
	return wire.UploadReq{ID: e.ID, KeyHash: e.KeyHash, CtBits: uint32(e.Chain.CtBits),
		NumAttrs: uint16(e.Chain.NumAttrs()), Chain: e.Chain.Bytes(), Auth: e.Auth}
}

// subscribe registers the standing probes on the hottest buckets, spread
// over the load connections, each drained by its own goroutine.
func (s *serve) subscribe() error {
	// An order sum of 17 uniform 64-bit ciphertexts is near-normal around
	// 8.5·2^64 with σ ≈ 1.19·2^64; probes sit within half a σ of the mean
	// and fire on about 3 % of the uploads into their bucket.
	mean := new(big.Int).Lsh(big.NewInt(17), 63)
	maxDist := new(big.Int).Lsh(big.NewInt(1), 60)
	for k := 0; k < standingSub; k++ {
		probe := s.pop.entry(uint32(tempIDBase-1-k), k%hotBuckets, 0)
		off := new(big.Int).Lsh(big.NewInt(int64(k-standingSub/2)), 59)
		probe.Chain.Cts = []*big.Int{new(big.Int).Add(mean, off)}
		probe.Chain.CtBits = 72
		sub, err := s.rig.conns[k%len(s.rig.conns)].Subscribe(probe, maxDist, 256)
		if err != nil {
			return err
		}
		s.subWG.Add(1)
		go func() {
			defer s.subWG.Done()
			for range sub.C {
				s.notified.Add(1)
			}
		}()
	}
	return nil
}

func (s *serve) close() {
	s.rig.close() // closing the connections closes every sub.C
	s.subWG.Wait()
}

// commAt is the community of (id, version): version 0 is the preloaded
// (or first-upload) placement, each later version a different one.
func (s *serve) commAt(id uint32, version uint32) int {
	c := s.pop.commOf(id, 0, -1)
	if int(id) > s.pop.n {
		c = s.pop.commOf(id, 1, -1)
	}
	for v := uint32(1); v <= version; v++ {
		c = s.pop.commOf(id, v+1, c)
	}
	return c
}

func (s *serve) record(a ack) {
	s.mu.Lock()
	s.acks = append(s.acks, a)
	s.mu.Unlock()
}

// target picks the stable user read i queries.
func (s *serve) target(i uint64) uint32 { return uint32(1 + hashOf(s.seed, 7, i)%s.nStable) }

func ids(rs []match.Result) []uint32 {
	out := make([]uint32, len(rs))
	for i, r := range rs {
		out[i] = uint32(r.ID)
	}
	return out
}

// sane is the check every read passes even while the bucket changes
// under it: at most k results, none the querier, none twice, each with
// a full auth blob.
func sane(id uint32, k int, rs []match.Result) error {
	if len(rs) > k {
		return fmt.Errorf("%d results for k=%d", len(rs), k)
	}
	seen := make(map[profile.ID]bool, len(rs))
	for _, r := range rs {
		if uint32(r.ID) == id || seen[r.ID] || len(r.Auth) != realAuthLen {
			return fmt.Errorf("malformed result %d for querier %d", r.ID, id)
		}
		seen[r.ID] = true
	}
	return nil
}

// do executes scheduled op i.
func (s *serve) do(w *worker, i uint64) (uint8, error) {
	kind, ord := s.mix.at(i)
	switch kind {
	case opKnn5, opKnn50:
		id, k := s.target(i), 5
		if kind == opKnn50 {
			k = 50
		}
		sp := w.tr.begin("client.query_rtt", -1, i)
		rs, err := w.conn.Query(profile.ID(id), k)
		w.tr.end(sp)
		if err != nil {
			return uint8(kind), err
		}
		if err := sane(id, k, rs); err != nil {
			return uint8(kind), err
		}
		if s.exact && i%checkEvery == 0 {
			want, err := s.base.knn(id, k)
			if err != nil {
				return uint8(kind), err
			}
			if s.checked.Add(1); !slices.Equal(ids(rs), want) {
				s.mismatch.Add(1)
				return uint8(kind), fmt.Errorf("kNN(%d,%d) differs from the plain sort", id, k)
			}
		}
	case opMaxDist:
		id := s.target(i)
		d, err := s.base.radius(id, 50)
		if err != nil {
			return uint8(kind), err
		}
		sp := w.tr.begin("client.query_rtt", -1, i)
		rs, err := w.conn.QueryMaxDistance(profile.ID(id), d.big())
		w.tr.end(sp)
		if err != nil {
			return uint8(kind), err
		}
		if s.exact && i%checkEvery == 0 {
			want, err := s.base.within(id, d, 100)
			if err != nil {
				return uint8(kind), err
			}
			if s.checked.Add(1); !slices.Equal(ids(rs), want) {
				s.mismatch.Add(1)
				return uint8(kind), fmt.Errorf("maxdist(%d) differs from the plain sort", id)
			}
		}
	case opUpload:
		id := uint32(s.pop.n) + 1 + uint32(ord)
		return uint8(kind), s.upload(w, i, id, 0)
	case opReupload:
		id := uint32(s.nStable + 1 + ord%s.nMovable)
		return uint8(kind), s.upload(w, i, id, uint32(1+ord/s.nMovable))
	case opBatch:
		entries := make([]match.Entry, batchSize)
		acks := make([]ack, batchSize)
		for j := range entries {
			id := uint32(batchIDBase + ord*batchSize + uint64(j))
			c := s.commAt(id, 0)
			entries[j] = s.pop.entry(id, c, 0)
			acks[j] = ack{op: i, id: id, comm: int32(c), alive: true}
		}
		sp := w.tr.begin("client.upload_batch_rtt", -1, i)
		_, err := w.conn.UploadBatch(entries)
		w.tr.end(sp)
		if err != nil {
			return uint8(kind), err
		}
		s.mu.Lock()
		s.acks = append(s.acks, acks...)
		s.mu.Unlock()
	case opRemove:
		// Removable preloaded users first, then single uploads from long
		// ago (uploads outnumber removes, so the target was acked well
		// before this op is due).
		id := uint32(s.nStable + s.nMovable + 1 + ord)
		if ord >= s.nRemovable {
			id = uint32(s.pop.n) + 1 + uint32(ord-s.nRemovable)
		}
		sp := w.tr.begin("client.remove_rtt", -1, i)
		err := w.conn.Remove(profile.ID(id))
		w.tr.end(sp)
		if err != nil {
			return uint8(kind), err
		}
		s.record(ack{op: i, id: id})
	}
	return uint8(kind), nil
}

func (s *serve) upload(w *worker, i uint64, id, version uint32) error {
	c := s.commAt(id, version)
	e := s.pop.entry(id, c, version)
	sp := w.tr.begin("client.upload_rtt", -1, i)
	err := w.conn.Upload(e)
	w.tr.end(sp)
	if err == nil {
		s.record(ack{op: i, id: id, comm: int32(c), version: version, alive: true})
	}
	return err
}

// expected is the state the acknowledged ops add up to.
type expected struct {
	comm    map[uint32]int32
	version map[uint32]uint32
}

func (s *serve) expected() expected {
	ex := expected{comm: make(map[uint32]int32, s.pop.n), version: make(map[uint32]uint32)}
	for id := uint32(1); id <= uint32(s.pop.n); id++ {
		ex.comm[id] = int32(s.pop.commOf(id, 0, -1))
	}
	sort.Slice(s.acks, func(a, b int) bool { return s.acks[a].op < s.acks[b].op })
	for _, a := range s.acks {
		if !a.alive {
			delete(ex.comm, a.id)
			delete(ex.version, a.id)
			continue
		}
		ex.comm[a.id] = a.comm
		if a.version > 0 {
			ex.version[a.id] = a.version
		}
	}
	return ex
}

// checkStore compares a store with the expected state: the same users, each
// in its bucket with its order sum. It returns the number of differences.
func (s *serve) checkStores(ex expected, stores ...*match.Server) (int, error) {
	seen := make(map[uint32]bool, len(ex.comm))
	bad := 0
	for _, st := range stores {
		err := st.ForEachEntry(func(e match.Entry) error {
			id := uint32(e.ID)
			if id >= deviceBase {
				return nil // the device cell's users, checked by Vf and recall
			}
			c, ok := ex.comm[id]
			switch {
			case !ok, seen[id], string(e.KeyHash) != string(s.pop.hashes[c]),
				e.Chain.OrderSum().Cmp(s.pop.orderSum(id, ex.version[id]).big()) != 0:
				if bad++; bad <= 3 {
					fmt.Fprintf(logOut, "bench: store differs from the acknowledged state at user %d\n", id)
				}
			}
			seen[id] = true
			return nil
		})
		if err != nil {
			return bad, err
		}
	}
	for id := range ex.comm {
		if !seen[id] {
			if bad++; bad <= 3 {
				fmt.Fprintf(logOut, "bench: acknowledged user %d is missing\n", id)
			}
		}
	}
	return bad, nil
}

// checkQuiescent compares n kNN answers of the now idle system with a
// plain sort of the expected final state.
func (s *serve) checkQuiescent(ex expected, n int) (checked, bad int, err error) {
	final := newOracle(len(s.pop.sizes))
	for id, c := range ex.comm {
		final.add(id, int(c), s.pop.orderSum(id, ex.version[id]))
	}
	final.seal()
	for j := 0; j < n; j++ {
		id := s.target(uint64(1<<40) + uint64(j))
		rs, err := s.rig.conns[0].Query(profile.ID(id), 5)
		if err != nil {
			return checked, bad, err
		}
		want, err := final.knn(id, 5)
		if err != nil {
			return checked, bad, err
		}
		if checked++; !slices.Equal(ids(rs), want) {
			if bad++; bad <= 3 {
				fmt.Fprintf(logOut, "bench: quiescent kNN(%d) = %v, plain sort says %v\n", id, ids(rs), want)
			}
		}
	}
	return checked, bad, nil
}

// verifyFinal runs the end-of-run checks of a mutating workload and
// returns how many failed checks they found. It closes the system: the
// WAL check recovers from the run's directory.
func (s *serve) verifyFinal(ops int) (checks, bad int, recoverS float64, err error) {
	ex := s.expected()
	// As many as one in checkEvery of the run's reads, within reason.
	n := ops * (s.spec.mix[opKnn5] + s.spec.mix[opKnn50] + s.spec.mix[opMaxDist]) / 20 / checkEvery
	n = max(100, min(n, 1000))
	checks, bad, err = s.checkQuiescent(ex, n)
	if err != nil {
		return checks, bad, 0, err
	}
	if s.spec.cluster {
		if !s.rig.caughtUp(10 * time.Second) {
			bad++
			fmt.Fprintln(logOut, "bench: a follower did not catch up")
		}
		stores := []*match.Server{s.rig.nodes[0].store, s.rig.nodes[1].store}
		b, err := s.checkStores(ex, stores...)
		if err != nil {
			return checks, bad, 0, err
		}
		checks, bad = checks+2, bad+b
		for i, f := range s.rig.followers {
			if f.store.NumUsers() != s.rig.nodes[i].store.NumUsers() {
				bad++
				fmt.Fprintf(logOut, "bench: follower %d holds %d users, its leader %d\n", i, f.store.NumUsers(), s.rig.nodes[i].store.NumUsers())
			}
		}
	}
	dirs := s.rig.walDirs
	s.close()
	// Recovery from only what the run left on disk: every acked upload,
	// no acked remove.
	start := time.Now()
	var recovered []*match.Server
	for _, dir := range dirs {
		j, store, _, err := server.OpenJournal(wal.Options{Dir: dir})
		if err != nil {
			return checks, bad, 0, err
		}
		j.Close()
		recovered = append(recovered, store)
	}
	recoverS = time.Since(start).Seconds()
	b, err := s.checkStores(ex, recovered...)
	return checks + 1, bad + b, recoverS, err
}

func runDir(name string) (string, error) {
	dir := filepath.Join(benchDir, "out", fmt.Sprintf("run-%d-%s", os.Getpid(), name))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
