package main

// The load generator: a bounded pool of workers, each owning one
// in-flight slot of one client connection, driven either closed loop
// (next op when the last completes) or open loop (op k is due at k/rate
// and timed from that instant, whether or not a worker was free).

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"smatch/internal/client"
)

// inFlightPerConn is the fixed pipelining window of every load phase: the
// measured knee for single uploads against the WAL (about 13k/s at 8,
// falling to about 8k/s at 32).
const inFlightPerConn = 8

// warmShare of every phase is run but not measured.
const warmShare = 0.10

type sample struct {
	at   float32 // seconds into the phase when the op was issued (closed) or due (open)
	ms   float32 // latency
	kind uint8
}

type worker struct {
	conn    *client.Conn
	tr      *tracer
	samples []sample
	failed  int
}

// tick is one reading of the sampler: CPU used and ops completed so far.
type tick struct {
	at   time.Time
	cpu  float64
	done int64
}

// sampler reads the process's CPU time and an op counter at a fixed
// interval, cutting a phase into windows.
type sampler struct {
	stop    chan struct{}
	stopped chan struct{}
	ticks   []tick // written by the goroutine, read after stopped closes
}

func startSampler(done *atomic.Int64, every time.Duration) *sampler {
	s := &sampler{stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.ticks = append(s.ticks, tick{time.Now(), cpuSeconds(), done.Load()})
			}
		}
	}()
	return s
}

func (s *sampler) finish() []tick {
	close(s.stop)
	<-s.stopped
	return s.ticks
}

// windows returns the throughput (ops/s) and the CPU cost (ms per op) of
// every window lying wholly within [from, to].
func windows(ticks []tick, from, to time.Time) (rates, costs []float64) {
	for i := 1; i < len(ticks); i++ {
		a, b := ticks[i-1], ticks[i]
		if a.at.Before(from) || b.at.After(to) || b.done == a.done {
			continue
		}
		rates = append(rates, float64(b.done-a.done)/b.at.Sub(a.at).Seconds())
		costs = append(costs, (b.cpu-a.cpu)/float64(b.done-a.done)*1e3)
	}
	return rates, costs
}

// undisturbed is the 90th percentile of the windows' rates and the 10th
// of their costs: what the code does in the tenth of the phase the
// machine left it most alone. It reads higher than the phase's average
// (which the notes give beside it), more so on a mix whose ops differ in
// size, and repeats better, though not well enough to gate on. ok is
// false without a window.
func undisturbed(rates, costs []float64) (opsPerS, cpuMsPerOp float64, ok bool) {
	if len(rates) == 0 {
		return 0, 0, false
	}
	opsPerS, _ = quantile(rates, 0.9)
	cpuMsPerOp, _ = quantile(costs, 0.1)
	return opsPerS, cpuMsPerOp, true
}

// pace is the phase's throughput and CPU cost in its undisturbed windows,
// or, of a phase too short to hold a window, on average.
func (st phaseStats) pace() (opsPerS, cpuMsPerOp float64) {
	if opsPerS, cpuMsPerOp, ok := undisturbed(st.rates, st.costs); ok {
		return opsPerS, cpuMsPerOp
	}
	return float64(st.ops) / st.wall, st.cpu / float64(st.ops) * 1e3
}

// add folds a later slice of the same phase into st.
func (st *phaseStats) add(o phaseStats) {
	st.attempted, st.failed, st.ops = st.attempted+o.attempted, st.failed+o.failed, st.ops+o.ops
	st.wall, st.cpu, st.wireBytes, st.mallocs, st.gcPauseMs = st.wall+o.wall, st.cpu+o.cpu, st.wireBytes+o.wireBytes, st.mallocs+o.mallocs, st.gcPauseMs+o.gcPauseMs
	st.lat, st.late = append(st.lat, o.lat...), append(st.late, o.late...)
	st.rates, st.costs = append(st.rates, o.rates...), append(st.costs, o.costs...)
	st.behindTail = o.behindTail
	for k, xs := range o.byKind {
		st.byKind[k] = append(st.byKind[k], xs...)
	}
}

// loadWindow cuts the load phases: at a few thousand ops a second a
// tenth of a second holds hundreds of ops.
const loadWindow = 100 * time.Millisecond

// opFunc runs scheduled op i on w and returns its kind.
type opFunc func(w *worker, i uint64) (kind uint8, err error)

// usage is what the process has consumed so far.
type usage struct {
	at      time.Time
	cpu     float64 // user+sys seconds
	wire    int64
	mallocs uint64
	pauseNs uint64
}

func snapshot(wire *wireCount) usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuSeconds(), wire: wire.total(), mallocs: ms.Mallocs, pauseNs: ms.PauseTotalNs}
}

// phaseStats covers the measured window of one phase (after warm-up).
type phaseStats struct {
	attempted, failed int
	ops               int       // completed without error in the window
	wall, cpu         float64   // seconds
	rates, costs      []float64 // per window: ops/s and CPU ms per op
	wireBytes         int64
	mallocs           uint64
	gcPauseMs         float64
	lat               []float64 // ms
	late              []float64 // µs the pacer itself was late handing ops out, open loop only
	behindTail        []float64 // µs past due at hand-out, for whatever reason, last quarter of the phase
	byKind            map[uint8][]float64
}

// runPhase drives do over ws for dur. rate 0 is a closed loop; otherwise
// ops are due at a fixed rate. next is the run-wide op counter, so IDs the
// schedule allocates never repeat across phases.
func runPhase(ws []*worker, next *atomic.Uint64, dur time.Duration, rate float64, wire *wireCount, do opFunc) phaseStats {
	for _, w := range ws {
		w.samples, w.failed = w.samples[:0], 0
	}
	base := next.Load()
	var claimed atomic.Uint64
	t0 := time.Now()
	end := t0.Add(dur)
	warm := time.Duration(float64(dur) * warmShare)
	beforeCh := make(chan usage, 1) // the one send below
	time.AfterFunc(warm, func() { beforeCh <- snapshot(wire) })
	var done atomic.Int64 // ops completed so far
	smp := startSampler(&done, loadWindow)
	// Closed loop: a worker claims the next op when its last completes.
	// Open loop: the pacer hands op k out when it is due, to whichever
	// worker is free; with every worker busy the op waits, and the wait
	// is in its latency, which is timed from the due instant.
	jobs := make(chan uint64, len(ws)) // one waiting op per worker before the pacer itself blocks
	var paced []handOut                // written by the pacer, read once jobs is closed and drained
	if rate > 0 {
		runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 1) // the pacer's, see pace
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) - 1)
		go pace(t0, end, rate, jobs, &paced)
	}
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			for {
				var k uint64
				ref := time.Now()
				if rate > 0 {
					var ok bool
					if k, ok = <-jobs; !ok {
						return
					}
					ref = dueAt(t0, k, rate)
				} else {
					if !ref.Before(end) {
						return
					}
					k = claimed.Add(1) - 1
				}
				kind, err := do(w, base+k)
				if err != nil {
					if w.failed++; w.failed <= 3 {
						fmt.Fprintf(os.Stderr, "bench: op %d failed: %v\n", base+k, err)
					}
					kind |= 0x80
				}
				w.samples = append(w.samples, sample{at: float32(ref.Sub(t0).Seconds()),
					ms: float32(time.Since(ref).Seconds() * 1e3), kind: kind})
				done.Add(1)
			}
		}(w)
	}
	wg.Wait()
	after, before := snapshot(wire), <-beforeCh
	ticks := smp.finish()
	if rate > 0 {
		claimed.Store(uint64(dur.Seconds() * rate))
	}
	next.Store(base + claimed.Load() + 1)

	st := phaseStats{wall: after.at.Sub(before.at).Seconds(), cpu: after.cpu - before.cpu,
		wireBytes: after.wire - before.wire, mallocs: after.mallocs - before.mallocs,
		gcPauseMs: float64(after.pauseNs-before.pauseNs) / 1e6, byKind: map[uint8][]float64{}}
	st.rates, st.costs = windows(ticks, t0.Add(warm), end)
	tail := dur.Seconds() * 0.75
	for _, w := range ws {
		for _, s := range w.samples {
			st.attempted++
			if s.kind&0x80 != 0 {
				st.failed++
				continue
			}
			if s.at < float32(warm.Seconds()) {
				continue
			}
			st.ops++
			st.lat = append(st.lat, float64(s.ms))
			st.byKind[s.kind] = append(st.byKind[s.kind], float64(s.ms))
		}
	}
	for k, h := range paced {
		if at := float64(k) / rate; at >= warm.Seconds() {
			if st.late = append(st.late, float64(h.own)); at >= tail {
				st.behindTail = append(st.behindTail, float64(h.behind))
			}
		}
	}
	return st
}

func dueAt(t0 time.Time, k uint64, rate float64) time.Time {
	return t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
}

// pace sends op numbers on jobs at their due instants until end, then
// closes it. A goroutine that sleeps through the Go runtime wakes up to a
// millisecond late when the process is otherwise idle (the runtime parks
// in epoll_wait, whose timeout is in milliseconds), and one that sleeps in
// an ordinary blocking syscall waits for a free P when it returns; both
// are far too coarse for a 100 µs schedule. So the pacer sleeps in a raw
// syscall, keeping its P, and runPhase adds one P for it to keep:
// GOMAXPROCS is nproc+1 during an open-loop phase, with nproc of them
// doing the work.
func pace(t0, end time.Time, rate float64, jobs chan<- uint64, out *[]handOut) {
	defer close(jobs)
	free := t0 // when the pacer last became free to hand out an op
	// The kernel wakes the thread some 50 µs after the time asked for
	// (timer slack and the VM's wake-up latency); the rest is spun.
	const spin = 60 * time.Microsecond
	for k := uint64(0); ; k++ {
		due := dueAt(t0, k, rate)
		if !due.Before(end) {
			return
		}
		for d := time.Until(due); d > 0; d = time.Until(due) {
			if d > spin {
				nap(d - spin) // an early return (a signal) is caught by the loop
			}
		}
		// What the pacer answers for is the time since it could first
		// have acted: the due instant, or, with every worker busy and the
		// queue full, the end of the send that blocked it.
		now := time.Now()
		from := due
		if free.After(due) {
			from = free
		}
		*out = append(*out, handOut{own: float32(now.Sub(from).Seconds() * 1e6), behind: float32(now.Sub(due).Seconds() * 1e6)})
		jobs <- k
		runtime.Gosched() // run the worker just woken on this P before sleeping on it again
		free = time.Now()
	}
}

// handOut is how late the pacer handed one op out, in µs: own counts from
// when it was free to act, behind from the op's due instant.
type handOut struct{ own, behind float32 }

// Validity limits of an open-loop phase. With the pacer itself later than
// maxLateP95us the generator, not the system, set the latencies. With the
// median op of the last quarter handed out more than maxBehindP50us past
// due, the system is not keeping up with the rate and the backlog only
// grows. (A stall that fills the pool for a while and drains again is the
// system's, and is in the latencies.) Either way the phase is reported as
// invalid, not as a number.
const (
	maxLateP95us   = 1000.0
	maxBehindP50us = 10000.0
)

func (st phaseStats) lateP95() float64 { v, _ := quantile(st.late, 0.95); return v }

// invalid explains why an open-loop phase cannot be trusted, or "".
func (st phaseStats) invalid() string {
	if len(st.late) == 0 {
		return ""
	}
	if v := st.lateP95(); v > maxLateP95us {
		return fmt.Sprintf("generator late: p95 %.0f µs > %.0f µs", v, maxLateP95us)
	}
	if v := median(st.behindTail); v > maxBehindP50us {
		return fmt.Sprintf("backlog grows: in the last quarter the median op left %.0f µs past due", v)
	}
	return ""
}

// openLoopPerConn bounds the open-loop pool: the client's and the
// server's default pipelining depth, so a worker is free unless the
// connection itself is full.
const openLoopPerConn = 32

// newWorkers gives every connection perConn workers.
func newWorkers(conns []*client.Conn, perConn int, traced bool, epoch time.Time) []*worker {
	var ws []*worker
	for _, c := range conns {
		for i := 0; i < perConn; i++ {
			w := &worker{conn: c}
			if traced {
				w.tr = newTracer(epoch)
			}
			ws = append(ws, w)
		}
	}
	return ws
}
