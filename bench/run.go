package main

// One run of one workload: set up (several times, for a median), measure
// for about --seconds, check the outputs, and, in a traced run, price
// every layer.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/match"
	"smatch/internal/metrics"
	"smatch/internal/profile"
	"smatch/internal/server"
	"smatch/internal/wal"
	"smatch/internal/wire"
)

// Open-loop rates, ops/s: 40 % of what the closed-loop throughput phase
// averages on the 2-core sandbox when no neighbour slows it (about 36000,
// 4500 and 3900 a second), to two digits, rounded down. Every run prints
// the share its own closed loop makes of it.
const (
	rateRead    = 14000
	rateChurn   = 1800
	rateCluster = 1500
)

var workloadNames = []string{"device_lifecycle", "serve_read", "serve_churn", "cluster_mixed"}

// scale sizes a run. production derives it from --seconds; the smoke test
// uses a toy one.
type scale struct {
	users, comms   int // the server workloads' population
	setups         int // set-ups per run; setup_s is their median
	throughput     time.Duration
	latency        time.Duration
	device         deviceSizes
	cellSample     int     // ops each layer cell replays
	homoN          int     // profiles the homoPM cell encrypts ...
	homoCandidates int     // ... candidates its server matches against ...
	homoBits       int     // ... and the size of its Paillier modulus
	walTail        int     // bytes of log the WAL cell's tail read lies behind
	scheme         *scheme // built earlier for the run's seed, or nil: set-up builds it (the smoke test's runs share one)
	rateFactor     float64 // scales the committed open-loop rates (toy runs are too short to sustain them)
}

// production splits --seconds between the phases. A device-side register
// costs about 8 ms and a verified find about 21 ms on the sandbox; the
// op counts below are what fits.
func production(workload string, seconds float64, traced bool) scale {
	if traced {
		seconds /= 3 // the traced run repeats the workload at a third
	}
	sc := scale{users: 100000, comms: 2000, setups: 3, cellSample: 200, homoN: 6, homoCandidates: 60, homoBits: 2048, walTail: 8 << 20, rateFactor: 1}
	if workload == "device_lifecycle" {
		sc.device = deviceSizes{queriers: int(22 * seconds), finds: int(28 * seconds), drifts: int(10 * seconds)}
		return sc
	}
	sc.throughput = time.Duration(0.27 * seconds * float64(time.Second))
	sc.latency = time.Duration(0.37 * seconds * float64(time.Second))
	// As many drifts as joins: registers are then timed in two spells, one
	// either side of the finds.
	sc.device = deviceSizes{queriers: int(5.5 * seconds), finds: int(12 * seconds), drifts: int(7 * seconds)}
	return sc
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a run reports.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
}

func nproc() int { return runtime.GOMAXPROCS(0) }

// heapPerUser is the process's live heap, in KB, per user its storage
// nodes hold (the leaders', in a cluster: followers hold copies). A closed
// loop uploads more users the faster the machine runs, so the heap itself
// says how fast the run was; the heap per user says what a user costs.
// Two collections: the first only moves sync.Pool contents to where the
// second frees them.
func heapPerUser(r *rig) float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	users := 0
	for _, n := range r.nodes {
		users += n.store.NumUsers()
	}
	return float64(ms.HeapAlloc) / 1024 / float64(users)
}

// system is a workload's system under test, set up and ready.
type system struct {
	sc    *scheme
	dp    *devicePop
	serve *serve // nil for device_lifecycle
	rig   *rig
	dir   string
}

func (y *system) close() {
	if y.serve != nil {
		y.serve.close()
	} else {
		y.rig.close()
	}
}

// setup builds everything a run needs before its first measured op: the
// scheme (key load, dataset, mappers, group), the populations, the
// servers, the preload and the connections.
func setup(workload string, seed uint64, sz scale) (*system, error) {
	dir, err := runDir(workload)
	if err != nil {
		return nil, err
	}
	sc := sz.scheme
	if sc == nil {
		if sc, err = newScheme(seed); err != nil {
			return nil, err
		}
	}
	y := &system{sc: sc, dir: dir}
	base := uint32(deviceBase)
	if workload == "device_lifecycle" {
		base = 0
	}
	if y.dp, err = newDevicePop(seed, sz.device.queriers, base, sc.gen, sc.ds); err != nil {
		return nil, err
	}
	if workload == "device_lifecycle" {
		// Writes are acked, so the WAL is on.
		if y.rig, err = newSingleRig(sc.oprfSrv, nil, filepath.Join(dir, "wal")); err != nil {
			return nil, err
		}
		if err := y.rig.dial(1); err != nil { // the layer cells' connection; devices dial their own
			y.rig.close()
			return nil, err
		}
		return y, nil
	}
	spec := serveSpecs[workload]
	spec.rate *= sz.rateFactor
	if y.serve, err = setupServe(spec, seed, sz.users, sz.comms, sc.oprfSrv, filepath.Join(dir, "wal")); err != nil {
		return nil, err
	}
	y.rig = y.serve.rig
	return y, nil
}

// nodeTotals sums the handler histograms and error counters of the
// storage nodes (the router's forwarders are not instrumented).
type nodeTotals struct{ handlerUs, handled, errors float64 }

func totals(r *rig) nodeTotals {
	var t nodeTotals
	regs := []*metrics.Registry{r.front.reg}
	for _, n := range r.nodes {
		if n != r.front {
			regs = append(regs, n.reg)
		}
	}
	for _, reg := range regs {
		for _, h := range []*metrics.Histogram{&reg.UploadLatency, &reg.MatchLatency, &reg.RemoveLatency, &reg.OPRFLatency} {
			us, n := histTotal(h)
			t.handlerUs, t.handled = t.handlerUs+us, t.handled+n
		}
		t.errors += float64(reg.Errors.Load())
	}
	return t
}

// gauges reads the queue-depth and replication-lag gauges every 10 ms
// until stopped.
type gauges struct {
	stop  chan struct{}
	done  sync.WaitGroup
	queue []float64
	lag   []float64
}

func watchGauges(r *rig) *gauges {
	s := &gauges{stop: make(chan struct{})}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.queue = append(s.queue, float64(r.front.reg.PipelineQueueDepth.Load()))
				var lag uint64
				for _, rep := range r.reps {
					lag += rep.LagStats()["lag_records"]
				}
				s.lag = append(s.lag, float64(lag))
			}
		}
	}()
	return s
}

func (s *gauges) finish() { close(s.stop); s.done.Wait() }

func runWorkload(workload string, seed uint64, seconds float64, traced bool, sz scale) (*outcome, error) {
	started := time.Now()
	out := &outcome{Correct: true, Metrics: map[string]metric{}}
	note := func(format string, args ...any) { out.notes = append(out.notes, fmt.Sprintf(format, args...)) }
	note("%s seed=%d seconds=%g trace=%v GOMAXPROCS=%d; in-process server, loopback TLS", workload, seed, seconds, traced, nproc())
	mach := newMachine()

	// Set up several times and report the median: one set-up is too noisy
	// to gate on. Every one starts as the first does, on a heap the OS has
	// back, and is timed the same way. The last system is the one measured.
	var setups []float64
	var y *system
	for i := 0; i < sz.setups; i++ {
		if y != nil {
			y.close()
			y = nil
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if y, err = setup(workload, seed, sz); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	mach.sample()
	defer os.RemoveAll(y.dir)
	closed := false
	defer func() {
		if !closed {
			y.close()
		}
	}()
	setupS := median(setups)
	note("set up %d times: %.3f s median", len(setups), setupS)

	epoch := time.Now()
	defer func() {
		note("wall: set-ups %.1f s, rest %.1f s", epoch.Sub(started).Seconds(), time.Since(epoch).Seconds())
	}()
	layers, inSitu := layerMetrics{}, layerMetrics{}
	var tput, lat phaseStats
	var loadRate, loadCost float64 // throughput and CPU per op of the load, from its untraced part
	var dev deviceStats
	var tracers []*tracer
	var err error
	overhead := 1.0

	// The device cell's finds and registers each run in two spells, one
	// either side of something else, for the reason the load phases do.
	addr, dsz := y.rig.front.addr, sz.device
	if y.serve == nil {
		lifecycle := func(traced bool, sz deviceSizes) (deviceStats, error) {
			cell, err := newDeviceCell(y.sc, y.dp, addr, seed, traced, epoch)
			if err != nil {
				return deviceStats{}, err
			}
			defer cell.close()
			cell.join()
			mach.sample()
			cell.find(sz.finds / 2)
			mach.sample()
			cell.drift(sz.drifts)
			mach.sample()
			cell.find(sz.finds - sz.finds/2)
			mach.sample()
			return cell.stats()
		}
		if traced {
			// Half untraced, half traced: their ratio is the tracing overhead.
			half := deviceSizes{dsz.queriers, dsz.finds / 2, dsz.drifts / 2}
			plain, err := lifecycle(false, half)
			if err != nil {
				return nil, err
			}
			if dev, err = lifecycle(true, half); err != nil {
				return nil, err
			}
			overhead = dev.rate / plain.rate
			out.Attempted, out.Failed = plain.attempted, plain.failed
			loadRate, loadCost = plain.rate, plain.cpuMsPerOp
		} else {
			if dev, err = lifecycle(false, dsz); err != nil {
				return nil, err
			}
			loadRate, loadCost = dev.rate, dev.cpuMsPerOp
		}
	} else {
		s := y.serve
		cell, err := newDeviceCell(y.sc, y.dp, addr, seed, traced, epoch)
		if err != nil {
			return nil, err
		}
		defer cell.close()
		cell.join()
		mach.sample()
		cell.find(dsz.finds / 2)
		mach.sample()
		var next atomic.Uint64
		before, routed := totals(y.rig), routerCounts(y.rig.front.reg)
		smp := watchGauges(y.rig)
		if traced {
			plain := runPhase(newWorkers(y.rig.conns, inFlightPerConn, false, epoch), &next, sz.throughput/2, 0, &y.rig.wire, s.do)
			loadRate, loadCost = plain.pace()
			ws, open := newWorkers(y.rig.conns, inFlightPerConn, true, epoch), newWorkers(y.rig.conns, openLoopPerConn, true, epoch)
			tput = runPhase(ws, &next, sz.throughput/2, 0, &y.rig.wire, s.do)
			lat = runPhase(open, &next, sz.latency, s.spec.rate, &y.rig.wire, s.do)
			for _, w := range append(ws, open...) {
				tracers = append(tracers, w.tr)
			}
			tracedRate, _ := tput.pace()
			overhead = tracedRate / loadRate
			out.Attempted, out.Failed = plain.attempted, plain.failed
		} else {
			// Each phase in two halves, the other phase between them: a
			// slow spell of the machine that swallows one half whole
			// leaves the other for the best-decile statistics to find.
			closed, open := newWorkers(y.rig.conns, inFlightPerConn, false, epoch), newWorkers(y.rig.conns, openLoopPerConn, false, epoch)
			tput = runPhase(closed, &next, sz.throughput/2, 0, &y.rig.wire, s.do)
			mach.sample()
			lat = runPhase(open, &next, sz.latency/2, s.spec.rate, &y.rig.wire, s.do)
			mach.sample()
			tput.add(runPhase(closed, &next, sz.throughput/2, 0, &y.rig.wire, s.do))
			mach.sample()
			lat.add(runPhase(open, &next, sz.latency/2, s.spec.rate, &y.rig.wire, s.do))
			mach.sample()
			loadRate, loadCost = tput.pace()
		}
		smp.finish()
		after := totals(y.rig)
		layers["server.handler_mean_us"] = (after.handlerUs - before.handlerUs) / (after.handled - before.handled)
		layers["server.errors"] = after.errors - before.errors
		layers["server.queue_depth_mean"] = mean(smp.queue)
		if y.rig.router != nil {
			// The cluster's own load, rather than the cluster cell's sample.
			now := routerCounts(y.rig.front.reg)
			inSitu = layerMetrics{
				"cluster.forwards_per_op":  (now.forwards - routed.forwards) / float64(next.Load()),
				"cluster.fanout_mean_us":   (now.fanoutUs - routed.fanoutUs) / (now.fanouts - routed.fanouts),
				"cluster.repl_lag_records": mean(smp.lag),
			}
		}
		note("throughput phase: closed loop, %d connections x %d in flight, %.2f s measured, %d ops, %.0f/s on average", len(y.rig.conns), inFlightPerConn, tput.wall, tput.ops, float64(tput.ops)/tput.wall)
		note("latency phase: open loop at %.0f/s (%.0f %% of that average), %.2f s measured, %d samples, generator lateness p95 %.0f µs",
			s.spec.rate, 100*s.spec.rate*tput.wall/float64(tput.ops), lat.wall, len(lat.lat), lat.lateP95())
		for k, xs := range lat.byKind {
			p50, _ := quantile(xs, 0.5)
			p95, _ := quantile(xs, 0.95)
			note("  %-9s n=%-6d p50 %.3f ms  p95 %.3f ms", opNames[k], len(xs), p50, p95)
		}
		if why := lat.invalid(); why != "" {
			note("LATENCY PHASE INVALID: %s", why)
			out.Correct = false
			out.Failed++
		}
		if s.mismatch.Load() > 0 {
			out.Correct = false
		}
		note("in-flight oracle checks: %d, mismatches %d; pushes received %d", s.checked.Load(), s.mismatch.Load(), s.notified.Load())
		// Collect the load phases' garbage now, so that the collection is
		// not charged to the device cell.
		runtime.GC()
		cell.find(dsz.finds - dsz.finds/2)
		mach.sample()
		cell.drift(dsz.drifts)
		mach.sample()
		if dev, err = cell.stats(); err != nil {
			return nil, err
		}
	}
	out.Attempted += tput.attempted + lat.attempted + dev.attempted
	out.Failed += tput.failed + lat.failed + dev.failed
	tracers = append(tracers, dev.tracers...)

	heapKB := heapPerUser(y.rig)
	if traced {
		in := cellSample(y, seed, sz, dev)
		cells, err := runCells(in)
		if err != nil {
			return nil, err
		}
		for k, v := range cells {
			layers[k] = v
		}
		for k, v := range inSitu {
			layers[k] = v
		}
	}

	// End-of-run state checks; they close the system.
	recoverS := 0.0
	if y.serve != nil && y.serve.spec.wal {
		var checks, bad int
		checks, bad, recoverS, err = y.serve.verifyFinal(tput.ops + lat.ops)
		closed = true
		if err != nil {
			return nil, fmt.Errorf("final checks: %w", err)
		}
		out.Attempted, out.Failed = out.Attempted+checks, out.Failed+bad
		note("final checks: %d run, %d failed; recovery of the run's WAL took %.3f s", checks, bad, recoverS)
	}
	if y.serve == nil {
		// The device cell's uploads were acked by a WAL-backed node: what
		// the run left on disk must hold every one of them.
		dir := y.rig.walDirs[0]
		y.close()
		closed = true
		start := time.Now()
		j, store, _, err := server.OpenJournal(wal.Options{Dir: dir})
		if err != nil {
			return nil, fmt.Errorf("recovering the run's WAL: %w", err)
		}
		recoverS = time.Since(start).Seconds()
		j.Close()
		out.Attempted++
		if store.NumUsers() != len(y.dp.joiners) {
			out.Failed++
			note("recovery found %d users, %d were registered", store.NumUsers(), len(y.dp.joiners))
		}
	}
	if out.Failed > 0 {
		out.Correct = false
	}
	note("fail_ratio %.6f (%d of %d)", float64(out.Failed)/float64(out.Attempted), out.Failed, out.Attempted)

	// What the gate does not use, every run still reports: the load's
	// throughput, CPU cost and latencies (README, "What is gated").
	load := map[string]float64{"loadgen.ops_per_s": loadRate, "loadgen.cpu_ms_per_op": loadCost}
	load["device.register_p10_ms"], _ = quantile(dev.register, 0.1)
	load["device.find_p10_ms"], _ = quantile(dev.find, 0.1)
	latencies := lat.lat
	if y.serve == nil {
		latencies = dev.all
	}
	load["loadgen.samples"] = float64(len(latencies))
	for name, q := range map[string]float64{"p10": 0.1, "p50": 0.5, "p95": 0.95, "p99": 0.99} {
		load["loadgen.op_"+name+"_ms"], _ = quantile(latencies, q)
	}
	note("machine: a fixed 2048-bit modexp took %.3f ms at its 10th percentile and %.3f ms at its median over %d readings between the phases (a median 1.2 times the 10th percentile or more: a neighbour kept the CPU busy)",
		quantileOf(mach.ms, 0.1), quantileOf(mach.ms, 0.5), len(mach.ms))
	if !traced {
		for _, name := range []string{"loadgen.ops_per_s", "loadgen.cpu_ms_per_op", "loadgen.op_p10_ms", "loadgen.op_p50_ms", "loadgen.op_p95_ms", "loadgen.op_p99_ms"} {
			note("ungated: %-24s %12.6g", name, load[name])
		}
		note("latencies over %d load, %d register and %d find samples", len(latencies), len(dev.register), len(dev.find))
		e := map[string]float64{"setup_s": setupS, "heap_kb_per_user": heapKB, "recall_at_5": dev.recall,
			"register_p10_ms": load["device.register_p10_ms"], "find_p10_ms": load["device.find_p10_ms"]}
		if y.serve == nil {
			e["wire_bytes_per_op"] = float64(dev.wireBytes) / float64(dev.ops)
			e["allocs_per_op"] = float64(dev.mallocs) / float64(dev.ops)
		} else {
			e["wire_bytes_per_op"] = float64(tput.wireBytes+lat.wireBytes) / float64(tput.ops+lat.ops)
			e["allocs_per_op"] = float64(tput.mallocs) / float64(tput.ops)
		}
		return out, fill(out, endToEnd, e)
	}
	for k, v := range load {
		layers[k] = v
	}

	// Per-layer numbers that come from the run itself.
	ts := summarize(dev.tracers)
	for name, spanName := range map[string]string{
		"oprf.eval_rtt_us": "oprf.eval_rtt", "entropy.initdata_us": "entropy.initdata", "chain.seal_us": "chain.seal",
		"verify.auth_us": "verify.auth", "verify.vf_us": "verify.vf",
		"client.query_rtt_us": "client.query_rtt", "client.upload_rtt_us": "client.upload_rtt"} {
		layers[name] = median(ts.total[spanName])
	}
	// A device op's children run one after another, so its self time is
	// the glue between them: the budget gap of that op kind.
	layers["budget.register_gap_pct"] = 100 * median(ts.self["device.register"]) / median(ts.total["device.register"])
	layers["budget.find_gap_pct"] = 100 * median(ts.self["device.find"]) / median(ts.total["device.find"])
	layers["keygen.self_us"] = median(ts.self["keygen.keygen"])
	layers["device.register_p50_ms"], layers["device.register_p95_ms"] = percentiles(dev.register, note, "register")
	layers["device.find_p50_ms"], layers["device.find_p95_ms"] = percentiles(dev.find, note, "find")
	layers["core.results_per_find"] = dev.resultsPerFind
	layers["core.vf_rejects"] = float64(dev.rejects)
	layers["loadgen.trace_overhead_ratio"] = overhead
	if y.serve == nil {
		layers["loadgen.late_p95_us"], _ = quantile(dev.gaps, 0.95)
		layers["runtime.gc_pause_ms"] = dev.gcPauseMs
		layers["runtime.allocs_per_op"] = float64(dev.mallocs) / float64(dev.ops)
		t := totals(y.rig)
		layers["server.handler_mean_us"], layers["server.errors"], layers["server.queue_depth_mean"] = t.handlerUs/t.handled, t.errors, 0
	} else {
		layers["loadgen.late_p95_us"] = lat.lateP95()
		layers["runtime.gc_pause_ms"] = tput.gcPauseMs + lat.gcPauseMs
		layers["runtime.allocs_per_op"] = float64(tput.mallocs) / float64(tput.ops)
	}
	if recoverS > 0 {
		layers["wal.recover_s"] = recoverS // the run's own WAL, not the cell's
	}
	path, err := writeTrace(workload, tracers)
	if err != nil {
		return nil, err
	}
	note("trace written to %s", path)
	for _, kind := range []string{"read", "write", "register", "find"} {
		note("budget closure, %s: gap %.1f %% (limit 15 %%)", kind, layers["budget."+kind+"_gap_pct"])
	}
	return out, fill(out, perLayer, layers)
}

// percentiles returns the median and the p95 of xs, noting the sample
// count and whether ten samples lie beyond the p95.
func percentiles(xs []float64, note func(string, ...any), what string) (p50, p95 float64) {
	p50, _ = quantile(xs, 0.5)
	p95, ok := quantile(xs, 0.95)
	if !ok {
		note("%s_p95 rests on fewer than 10 samples beyond it (n=%d)", what, len(xs))
	} else {
		note("%s percentiles over %d samples", what, len(xs))
	}
	return p50, p95
}

// cellSample draws what the layer cells replay from the run's own
// population and schedule.
func cellSample(y *system, seed uint64, sz scale, dev deviceStats) cellInput {
	n := sz.cellSample
	in := cellInput{sc: y.sc, rig: y.rig, storage: y.rig.nodes[0], dev: dev, dir: y.dir, homoN: sz.homoN, homoCandidates: sz.homoCandidates, homoBits: sz.homoBits, walTail: sz.walTail}
	for i := 0; i < n && i < len(y.dp.joiners); i++ {
		in.profiles = append(in.profiles, y.dp.joiners[i])
	}
	for i := 0; i < n && i < len(y.dp.queriers); i++ {
		in.deviceQ = append(in.deviceQ, y.dp.joiners[y.dp.queriers[i]].ID)
	}
	throwaway := newPopulation(seed, 2000, 50)
	in.fresh = func(j int) match.Entry { return throwaway.entry(uint32(j+1), throwaway.commOf(uint32(j+1), 0, -1), 0) }
	if y.serve == nil {
		// The records the devices uploaded, and copies of them under IDs
		// that do not exist.
		in.entries = dev.kept
		for i, e := range dev.kept {
			in.queries = append(in.queries, wire.QueryReq{QueryID: uint64(i), ID: e.ID, TopK: topK})
			e.ID = profile.ID(tempIDBase + i)
			in.temps = append(in.temps, e)
		}
		return in
	}
	s := y.serve
	owned := func(comm int) bool { return y.rig.leaderOf(s.pop.hashes[comm]) == in.storage }
	for j := uint64(0); len(in.entries) < n; j++ {
		id := s.target(uint64(1<<41) + j)
		c := s.pop.commOf(id, 0, -1)
		if !owned(c) {
			continue
		}
		in.entries = append(in.entries, s.pop.entry(id, c, 0))
		q := wire.QueryReq{QueryID: j, ID: profile.ID(id), TopK: 5}
		// The workload's own read kinds, in about its proportions.
		switch n := len(in.entries) % 10; {
		case s.spec.mix[opKnn50] > 0 && n < 2:
			q.TopK = 50
		case s.spec.mix[opMaxDist] > 0 && n == 2:
			if d, err := s.base.radius(id, 50); err == nil {
				q.Mode, q.MaxDist, q.TopK = wire.ModeMaxDistance, d.big(), 0
			}
		}
		in.queries = append(in.queries, q)
	}
	for j := 0; len(in.temps) < n; j++ {
		id := uint32(tempIDBase + j)
		if c := s.pop.commOf(id, 1, -1); owned(c) {
			in.temps = append(in.temps, s.pop.entry(id, c, 0))
		}
	}
	return in
}
