package main

// The device cell: real client crypto end to end against the workload's
// own server. max(1, nproc/2) devices, one connection each, closed loop.
// join registers every user (Keygen with the OPRF over the wire,
// InitData, Enc, Auth, Upload); find queries the dense-cell users and
// verifies every result; drift re-registers users that moved one
// attribute by one step. It is the whole of device_lifecycle and the
// closing phase of every server workload.

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/client"
	"smatch/internal/core"
	"smatch/internal/dataset"
	"smatch/internal/keygen"
	"smatch/internal/match"
	"smatch/internal/oprf"
	"smatch/internal/profile"
)

// scheme is the deployment every device shares: the paper's parameters at
// production size on the Weibo-like schema.
type scheme struct {
	oprfSrv *oprf.Server
	ds      *dataset.Dataset
	sys     *core.System
	gen     *keygen.Generator // the same fuzzy-vector code Keygen runs, for cell selection and replay
}

func newScheme(seed uint64) (*scheme, error) {
	oprfSrv, err := loadOPRF()
	if err != nil {
		return nil, err
	}
	ds := dataset.WeiboSeeded(weiboNodes, seed)
	sys, err := core.NewSystem(ds.Schema, ds.Dist, core.Params{PlaintextBits: 64, Theta: theta, TopK: topK}, oprfSrv.PublicKey(), nil)
	if err != nil {
		return nil, err
	}
	gen, err := keygen.New(ds.Schema, theta, oprfSrv.PublicKey(), oprfSrv)
	if err != nil {
		return nil, err
	}
	return &scheme{oprfSrv: oprfSrv, ds: ds, sys: sys, gen: gen}, nil
}

func numDevices() int {
	if n := runtime.GOMAXPROCS(0) / 2; n > 1 {
		return n
	}
	return 1
}

// tracedEval is the device's OPRF transport with a span around the round
// trip, the one call Keygen makes that leaves the device.
type tracedEval struct {
	conn   *client.Conn
	tr     *tracer
	parent int32
	req    uint64
}

func (e *tracedEval) Evaluate(x *big.Int) (*big.Int, error) {
	sp := e.tr.begin("oprf.eval_rtt", e.parent, e.req)
	y, err := e.conn.Evaluate(x)
	e.tr.end(sp)
	return y, err
}

type device struct {
	index int // among the cell's devices
	core  *core.Client
	eval  *tracedEval
	keys  map[profile.ID]*keygen.Key
	kept  []match.Entry // a few uploaded records, for the layer cells

	register, find, drift []float64 // ms, after warm-up
	gaps                  []float64 // µs the loop itself spent between two ops
	results, rejects      int
	hits, truth           int
	attempted, failed     int
	done                  *atomic.Int64 // the cell's op counter
}

// deviceStats is one run of the cell.
type deviceStats struct {
	register, find, all []float64 // ms; register includes drift re-registrations
	attempted, failed   int
	ops                 int
	wall                float64
	rate, cpuMsPerOp    float64 // of the whole cell, from each phase's undisturbed windows
	wireBytes           int64
	recall              float64
	resultsPerFind      float64
	rejects             int
	gaps                []float64
	mallocs             uint64
	gcPauseMs           float64
	registerWire        float64 // bytes per register, from the join phase
	findWire            float64
	kept                []match.Entry
	tracers             []*tracer
}

// deviceSizes scales the cell: queriers is the least number of dense-cell
// users to register, finds and drifts are op counts.
type deviceSizes struct{ queriers, finds, drifts int }

// deviceWindow cuts the cell's phases: at 40-100 ops a second half a
// second holds a few dozen.
const deviceWindow = 500 * time.Millisecond

func deviceSecret(seed uint64, i int) []byte {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], seed)
	binary.BigEndian.PutUint64(b[8:], uint64(i))
	h := sha256.Sum256(append([]byte("bench/device-secret/"), b[:]...))
	return h[:]
}

// register is one profile to durable ack.
func (d *device) registerUser(p profile.Profile, req uint64) error {
	tr := d.eval.tr
	root := tr.begin("device.register", -1, req)
	defer tr.end(root)
	d.eval.parent, d.eval.req = tr.begin("keygen.keygen", root, req), req
	key, err := d.core.Keygen(p)
	tr.end(d.eval.parent)
	if err != nil {
		return err
	}
	sp := tr.begin("entropy.initdata", root, req)
	mapped, err := d.core.InitData(p)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("chain.seal", root, req)
	ch, err := d.core.Enc(key, p.ID, mapped)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("verify.auth", root, req)
	auth, err := d.core.Auth(key, p.ID)
	tr.end(sp)
	if err != nil {
		return err
	}
	e := match.Entry{ID: p.ID, KeyHash: key.Hash(), Chain: ch, Auth: auth}
	sp = tr.begin("client.upload_rtt", root, req)
	err = d.eval.conn.Upload(e)
	tr.end(sp)
	if err != nil {
		return err
	}
	d.keys[p.ID] = key
	if len(d.kept) < 32 {
		d.kept = append(d.kept, e)
	}
	return nil
}

// findMatches is one query to verified results; it returns the verified
// IDs and how many results Vf rejected.
func (d *device) findMatches(id profile.ID, req uint64) (verified []profile.ID, rejected int, err error) {
	tr := d.eval.tr
	root := tr.begin("device.find", -1, req)
	defer tr.end(root)
	sp := tr.begin("client.query_rtt", root, req)
	results, err := d.eval.conn.Query(id, topK)
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	key := d.keys[id]
	for _, r := range results {
		sp = tr.begin("verify.vf", root, req)
		ok, verr := d.core.Vf(key, r.ID, r.Auth)
		tr.end(sp)
		if verr != nil || !ok {
			rejected++
			continue
		}
		verified = append(verified, r.ID)
	}
	return verified, rejected, nil
}

// timed runs n ops on the device, recording the latency of those past
// the warm-up share into *into.
func (d *device) timed(n int, into *[]float64, op func(k int) error) {
	skip := int(float64(n) * warmShare)
	var last time.Time
	for k := 0; k < n; k++ {
		start := time.Now()
		if k > 0 {
			d.gaps = append(d.gaps, float64(start.Sub(last).Nanoseconds())/1e3)
		}
		err := op(k)
		last = time.Now()
		ms := last.Sub(start).Seconds() * 1e3
		d.attempted++
		if err != nil {
			if d.failed++; d.failed <= 3 {
				fmt.Fprintln(logOut, "bench: device op failed:", err)
			}
			continue
		}
		d.done.Add(1)
		if k >= skip {
			*into = append(*into, ms)
		}
	}
}

// deviceCell is the devices, their connections and what they measured.
// Its phases may be spread over a run, with load phases between them: the
// sampler and the wire count keep running, and only the phases' own time
// is counted.
type deviceCell struct {
	dp     *devicePop
	seed   uint64
	devs   []*device
	mine   [][]int // the queriers each device registered
	wire   wireCount
	done   atomic.Int64
	smp    *sampler
	ticks  []tick // set by close
	closed sync.Once
	phases []cellPhase
	finds  int // finds and drifts run so far: a later spell continues the schedule
	drifts int
}

type cellPhase struct {
	from, to usage
	ops      int64
	kind     string
}

// newDeviceCell dials one connection per device to addr.
func newDeviceCell(sc *scheme, dp *devicePop, addr string, seed uint64, traced bool, epoch time.Time) (*deviceCell, error) {
	c := &deviceCell{dp: dp, seed: seed, devs: make([]*device, numDevices())}
	for i := range c.devs {
		conn, err := dialWarm(addr, c.wire.dialer)
		if err != nil {
			c.close()
			return nil, err
		}
		ev := &tracedEval{conn: conn}
		c.devs[i] = &device{index: i, eval: ev, keys: make(map[profile.ID]*keygen.Key), done: &c.done}
		if traced {
			ev.tr = newTracer(epoch)
		}
		if c.devs[i].core, err = sc.sys.NewClient(ev, deviceSecret(seed, i)); err != nil {
			c.close()
			return nil, err
		}
	}
	c.mine = make([][]int, len(c.devs))
	for _, j := range dp.queriers { // a querier is found by the device that registered it
		c.mine[j%len(c.devs)] = append(c.mine[j%len(c.devs)], j)
	}
	c.smp = startSampler(&c.done, deviceWindow)
	return c, nil
}

// close stops the sampler and hangs up; stats calls it, and so may any
// error path, in either order.
func (c *deviceCell) close() {
	c.closed.Do(func() {
		if c.smp != nil {
			c.ticks = c.smp.finish()
		}
		for _, d := range c.devs {
			if d != nil {
				d.eval.conn.Close()
			}
		}
	})
}

// phase runs n ops spread over the devices, device i taking ops i, i+nd,
// ..., each op numbered from base on.
func (c *deviceCell) phase(kind string, n, base int, into func(*device) *[]float64, op func(d *device, k int) error) {
	nd := len(c.devs)
	from, before := snapshot(&c.wire), c.done.Load()
	var wg sync.WaitGroup
	for i, d := range c.devs {
		wg.Add(1)
		go func(i int, d *device) {
			defer wg.Done()
			d.timed((n-i+nd-1)/nd, into(d), func(k int) error { return op(d, base+i+k*nd) })
		}(i, d)
	}
	wg.Wait()
	c.phases = append(c.phases, cellPhase{from, snapshot(&c.wire), c.done.Load() - before, kind})
}

// join registers every user as generated; joiner j is device j%nd's.
func (c *deviceCell) join() {
	c.dp.reset()
	c.phase("join", len(c.dp.joiners), 0, func(d *device) *[]float64 { return &d.register },
		func(d *device, k int) error { return d.registerUser(c.dp.joiners[k], uint64(k)) })
}

// find runs the next n finds of the schedule; a device finds for the
// users it registered, whose keys it holds.
func (c *deviceCell) find(n int) {
	nd := len(c.devs)
	c.phase("find", n, c.finds, func(d *device) *[]float64 { return &d.find }, func(d *device, k int) error {
		own := c.mine[d.index]
		p := c.dp.joiners[own[(k/nd)%len(own)]]
		verified, rejected, err := d.findMatches(p.ID, uint64(1<<32)|uint64(k))
		if err != nil {
			return err
		}
		d.results += len(verified) + rejected
		if d.rejects += rejected; rejected > 0 {
			return fmt.Errorf("Vf rejected %d results for user %d", rejected, p.ID)
		}
		want := map[profile.ID]bool{}
		for _, t := range c.dp.truth[p.ID] {
			want[t] = true
		}
		for _, v := range verified {
			if want[v] {
				d.hits++
			}
		}
		d.truth += min(topK, len(want))
		return nil
	})
	c.finds += n
}

// drift re-registers the next n drifted users of the schedule, each by
// the device that joined it, and brings the ground truth up to date:
// finds that follow are scored against the profiles as they now are.
func (c *deviceCell) drift(n int) {
	nd := len(c.devs)
	c.phase("drift", n, c.drifts, func(d *device) *[]float64 { return &d.drift }, func(d *device, k int) error {
		_, p := c.dp.drift(c.seed, k, d.index, nd)
		return d.registerUser(p, uint64(2<<32)|uint64(k))
	})
	for k := c.drifts; k < c.drifts+n; k++ {
		j, p := c.dp.drift(c.seed, k, (k-c.drifts)%nd, nd) // phase gave op k to that device
		c.dp.current[j] = p
	}
	c.dp.retruth()
	c.drifts += n
}

// stats stops the cell and adds up what it measured.
func (c *deviceCell) stats() (deviceStats, error) {
	c.close()
	ticks := c.ticks
	var st deviceStats
	var results, hits, truth int
	for _, d := range c.devs {
		st.register = append(append(st.register, d.register...), d.drift...)
		st.find = append(st.find, d.find...)
		st.attempted, st.failed, st.rejects = st.attempted+d.attempted, st.failed+d.failed, st.rejects+d.rejects
		results, hits, truth = results+d.results, hits+d.hits, truth+d.truth
		st.kept, st.gaps = append(st.kept, d.kept...), append(st.gaps, d.gaps...)
		st.tracers = append(st.tracers, d.eval.tr)
	}
	st.ops = st.attempted - st.failed
	st.all = append(append([]float64(nil), st.register...), st.find...)
	// The cell's throughput and CPU cost, had every phase run at the pace
	// of its undisturbed windows; a phase too short to hold a window
	// counts as it ran.
	var seconds, cpuMs float64
	wire := map[string]int64{}
	ops := map[string]int64{}
	for _, ph := range c.phases {
		st.wall += ph.to.at.Sub(ph.from.at).Seconds()
		st.wireBytes += ph.to.wire - ph.from.wire
		st.mallocs += ph.to.mallocs - ph.from.mallocs
		st.gcPauseMs += float64(ph.to.pauseNs-ph.from.pauseNs) / 1e6
		wire[ph.kind] += ph.to.wire - ph.from.wire
		ops[ph.kind] += ph.ops
		if ph.ops == 0 {
			continue
		}
		rate, cost, ok := undisturbed(windows(ticks, ph.from.at, ph.to.at))
		if !ok {
			rate = float64(ph.ops) / ph.to.at.Sub(ph.from.at).Seconds()
			cost = (ph.to.cpu - ph.from.cpu) / float64(ph.ops) * 1e3
		}
		seconds += float64(ph.ops) / rate
		cpuMs += float64(ph.ops) * cost
	}
	st.rate, st.cpuMsPerOp = float64(st.ops)/seconds, cpuMs/float64(st.ops)
	st.registerWire, st.findWire = float64(wire["join"])/float64(ops["join"]), float64(wire["find"])/float64(ops["find"])
	if truth == 0 {
		return st, fmt.Errorf("device cell: no querier has a true neighbour")
	}
	st.recall = float64(hits) / float64(truth)
	st.resultsPerFind = float64(results) / float64(c.finds)
	return st, nil
}
