// Package metrics is the server's observability layer: lock-free atomic
// counters and latency histograms for the hot operations (upload, match,
// remove, OPRF), live connection gauges, and pluggable callback gauges
// (e.g. the match store's bucket-size distribution). A Registry renders
// itself as an expvar-style JSON document over HTTP and as a one-line
// summary for periodic logging.
//
// Everything on the record path is a single atomic add — safe to leave on
// in production, and it adds no lock to the hot path.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// histBuckets is the number of power-of-two latency buckets; bucket i
// counts observations with ceil(log2(µs)) == i, so the histogram spans
// 1µs .. ~35min with no allocation and no locks.
const histBuckets = 32

// Histogram is a fixed-bucket, power-of-two latency histogram. The zero
// value is ready to use.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	count  atomic.Uint64
	sumUS  atomic.Uint64
}

// Observe records one operation latency.
func (h *Histogram) Observe(d time.Duration) {
	h.ObserveValue(d.Microseconds())
}

// ObserveValue records one unitless value (e.g. a group-commit batch
// size) in the same power-of-two buckets; pair it with ValueSnapshot so
// the report does not mislabel the numbers as microseconds.
func (h *Histogram) ObserveValue(v int64) {
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sumUS.Add(uint64(v))
	h.counts[bucketFor(v)].Add(1)
}

func bucketFor(us int64) int {
	b := int(math.Ceil(math.Log2(float64(us + 1))))
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// reporting: totals, the mean, and bucket-interpolated quantiles.
type HistogramSnapshot struct {
	Count  uint64  `json:"count"`
	MeanUS float64 `json:"mean_us"`
	P50US  float64 `json:"p50_us"`
	P95US  float64 `json:"p95_us"`
	P99US  float64 `json:"p99_us"`
}

// Snapshot summarizes the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	var counts [histBuckets]uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	if s.Count == 0 {
		return s
	}
	s.MeanUS = float64(h.sumUS.Load()) / float64(s.Count)
	s.P50US = quantile(counts[:], s.Count, 0.50)
	s.P95US = quantile(counts[:], s.Count, 0.95)
	s.P99US = quantile(counts[:], s.Count, 0.99)
	return s
}

// ValueHistogramSnapshot is HistogramSnapshot for histograms of unitless
// values recorded with ObserveValue.
type ValueHistogramSnapshot struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// ValueSnapshot summarizes a histogram of unitless values.
func (h *Histogram) ValueSnapshot() ValueHistogramSnapshot {
	s := h.Snapshot()
	return ValueHistogramSnapshot{Count: s.Count, Mean: s.MeanUS, P50: s.P50US, P95: s.P95US, P99: s.P99US}
}

// quantile returns the upper bound (in µs) of the bucket holding the q-th
// observation — a bucket-resolution estimate, which is all a power-of-two
// histogram can honestly claim.
func quantile(counts []uint64, total uint64, q float64) float64 {
	target := uint64(q * float64(total))
	var cum uint64
	for i, c := range counts {
		cum += c
		if cum > target {
			return math.Exp2(float64(i)) - 1
		}
	}
	// Tail fallback (rounding can push target to the full count): the
	// quantile lives in the last bucket, whose upper bound follows the
	// same Exp2(i)-1 convention as every other bucket.
	return math.Exp2(float64(len(counts)-1)) - 1
}

// Registry aggregates the server's counters, histograms and gauges.
type Registry struct {
	start time.Time

	// Operation counters. Uploads counts applied entries (a batch frame of
	// N entries adds N); UploadBatches counts batch frames.
	Uploads       atomic.Uint64
	UploadBatches atomic.Uint64
	Matches       atomic.Uint64
	Removes       atomic.Uint64
	OPRFEvals     atomic.Uint64
	Errors        atomic.Uint64

	// Connection gauges. PipelinedConns counts connections that upgraded
	// to the v2 pipelined protocol via a hello exchange.
	ActiveConns    atomic.Int64
	TotalConns     atomic.Uint64
	PipelinedConns atomic.Uint64

	// Per-operation in-flight gauges: requests currently inside their
	// service handler (decode through encode). Under the pipelined
	// protocol several can be live at once on a single connection, so
	// these expose the concurrency the latency histograms average away.
	UploadsInFlight atomic.Int64
	MatchesInFlight atomic.Int64
	RemovesInFlight atomic.Int64
	OPRFInFlight    atomic.Int64

	// PipelineQueueDepth gauges requests accepted by pipelined readers but
	// not yet picked up by a worker — a sustained nonzero depth means the
	// worker pools are saturated and -pipeline-depth (or the host) is the
	// bottleneck.
	PipelineQueueDepth atomic.Int64

	// Connection-lifecycle counters (server side). ReadTimeouts counts
	// idle/stalled reads reaped by the read deadline; WriteTimeouts counts
	// response writes abandoned because the client stopped draining its
	// socket; ConnsRejected counts connections turned away at the
	// max-connections cap; ConnsDrained counts connections that finished
	// their in-flight request and exited during a graceful drain;
	// DrainForcedCloses counts connections force-closed because they were
	// still busy when the drain deadline expired.
	ReadTimeouts      atomic.Uint64
	WriteTimeouts     atomic.Uint64
	ConnsRejected     atomic.Uint64
	ConnsDrained      atomic.Uint64
	DrainForcedCloses atomic.Uint64

	// Push-based matching counters (populated when the server runs the
	// subscription broker). Subscribes/Unsubscribes count registry
	// operations and SubscriptionsActive gauges live subscriptions;
	// NotifiesEnqueued counts notifications generated by apply-side
	// evaluation, NotifiesSent counts push frames written to subscribers,
	// and NotifiesDropped counts notifications evicted from a bounded
	// subscription queue (drop-oldest) because the subscriber was slow —
	// enqueued minus sent minus dropped is the backlog still queued.
	Subscribes          atomic.Uint64
	Unsubscribes        atomic.Uint64
	SubscriptionsActive atomic.Int64
	NotifiesEnqueued    atomic.Uint64
	NotifiesSent        atomic.Uint64
	NotifiesDropped     atomic.Uint64

	// Client resilience counters (populated when a client.Conn is built
	// with this registry — e.g. a load generator exporting its own
	// /metrics). BrokenConns counts connections marked unusable after an
	// I/O error or stream desync; Reconnects counts successful redials;
	// Retries counts re-sent idempotent requests.
	ClientBrokenConns atomic.Uint64
	ClientReconnects  atomic.Uint64
	ClientRetries     atomic.Uint64

	// Per-operation latency. UploadBatchSize records entries per batch
	// frame (ObserveValue).
	UploadLatency   Histogram
	MatchLatency    Histogram
	RemoveLatency   Histogram
	OPRFLatency     Histogram
	UploadBatchSize Histogram

	// Write-ahead log durability counters (populated when the server runs
	// with -wal). Appends and fsyncs diverge under group commit: one
	// fsync covers a whole batch.
	WALAppends       atomic.Uint64
	WALAppendedBytes atomic.Uint64
	WALFsyncs        atomic.Uint64
	WALRotations     atomic.Uint64
	WALCheckpoints   atomic.Uint64
	WALFsyncLatency  Histogram
	WALBatchSize     Histogram // records per group commit (ObserveValue)

	// Cluster counters. On a leader, records/bytes shipped to followers
	// (replication pulls answered); on a follower, records/bytes applied
	// off the shipped stream. Router counters live on the router role;
	// fan-out latency covers one scatter/gather (all partitions, merged).
	ReplicationRecordsShipped   atomic.Uint64
	ReplicationBytesShipped     atomic.Uint64
	ReplicationPulls            atomic.Uint64
	ReplicationSnapshots        atomic.Uint64 // pulls answered with a checkpoint instead of records
	ReplicationSnapshotOversize atomic.Uint64 // checkpoint pulls refused: snapshot exceeds one frame
	RouterForwards              atomic.Uint64
	RouterScatters              atomic.Uint64
	RouterRetries               atomic.Uint64 // forwards retried against another replica
	RouterFanoutLatency         Histogram

	mu     sync.Mutex
	gauges map[string]func() any
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{start: time.Now(), gauges: make(map[string]func() any)}
}

// RegisterGauge installs a named callback evaluated at snapshot time; its
// value must be JSON-serializable (the match store registers its
// bucket-size distribution this way). Re-registering a name replaces it.
func (r *Registry) RegisterGauge(name string, fn func() any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gauges[name] = fn
}

// Snapshot renders the registry as an ordered JSON-ready map.
func (r *Registry) Snapshot() map[string]any {
	out := map[string]any{
		"uptime_seconds":  time.Since(r.start).Seconds(),
		"uploads":         r.Uploads.Load(),
		"upload_batches":  r.UploadBatches.Load(),
		"matches":         r.Matches.Load(),
		"removes":         r.Removes.Load(),
		"oprf_evals":      r.OPRFEvals.Load(),
		"errors":          r.Errors.Load(),
		"active_conns":    r.ActiveConns.Load(),
		"total_conns":     r.TotalConns.Load(),
		"pipelined_conns": r.PipelinedConns.Load(),

		"in_flight": map[string]int64{
			"uploads": r.UploadsInFlight.Load(),
			"matches": r.MatchesInFlight.Load(),
			"removes": r.RemovesInFlight.Load(),
			"oprf":    r.OPRFInFlight.Load(),
		},
		"pipeline_queue_depth": r.PipelineQueueDepth.Load(),

		"read_timeouts":       r.ReadTimeouts.Load(),
		"write_timeouts":      r.WriteTimeouts.Load(),
		"conns_rejected":      r.ConnsRejected.Load(),
		"conns_drained":       r.ConnsDrained.Load(),
		"drain_forced_closes": r.DrainForcedCloses.Load(),

		"subscribes":           r.Subscribes.Load(),
		"unsubscribes":         r.Unsubscribes.Load(),
		"subscriptions_active": r.SubscriptionsActive.Load(),
		"notifies_enqueued":    r.NotifiesEnqueued.Load(),
		"notifies_sent":        r.NotifiesSent.Load(),
		"notifies_dropped":     r.NotifiesDropped.Load(),

		"client_broken_conns": r.ClientBrokenConns.Load(),
		"client_reconnects":   r.ClientReconnects.Load(),
		"client_retries":      r.ClientRetries.Load(),
		"upload_latency":      r.UploadLatency.Snapshot(),
		"match_latency":       r.MatchLatency.Snapshot(),
		"remove_latency":      r.RemoveLatency.Snapshot(),
		"oprf_latency":        r.OPRFLatency.Snapshot(),
		"upload_batch_size":   r.UploadBatchSize.ValueSnapshot(),

		"wal_appends":        r.WALAppends.Load(),
		"wal_appended_bytes": r.WALAppendedBytes.Load(),
		"wal_fsyncs":         r.WALFsyncs.Load(),
		"wal_rotations":      r.WALRotations.Load(),
		"wal_checkpoints":    r.WALCheckpoints.Load(),
		"wal_fsync_latency":  r.WALFsyncLatency.Snapshot(),
		"wal_batch_size":     r.WALBatchSize.ValueSnapshot(),

		"replication_records_shipped":   r.ReplicationRecordsShipped.Load(),
		"replication_bytes_shipped":     r.ReplicationBytesShipped.Load(),
		"replication_pulls":             r.ReplicationPulls.Load(),
		"replication_snapshots":         r.ReplicationSnapshots.Load(),
		"replication_snapshot_oversize": r.ReplicationSnapshotOversize.Load(),
		"router_forwards":               r.RouterForwards.Load(),
		"router_scatters":               r.RouterScatters.Load(),
		"router_retries":                r.RouterRetries.Load(),
		"router_fanout_latency":         r.RouterFanoutLatency.Snapshot(),
	}
	r.mu.Lock()
	for name, fn := range r.gauges {
		out[name] = fn()
	}
	r.mu.Unlock()
	return out
}

// Handler serves the snapshot as pretty-printed JSON (expvar-style: one
// GET, one document).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// Summary renders a stable one-line digest for periodic Logf output.
func (r *Registry) Summary() string {
	snap := r.Snapshot()
	keys := []string{"uploads", "matches", "removes", "oprf_evals", "errors",
		"active_conns", "total_conns", "read_timeouts", "write_timeouts",
		"conns_rejected"}
	parts := make([]string, 0, len(keys)+2)
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%v", k, snap[k]))
	}
	m := r.MatchLatency.Snapshot()
	parts = append(parts, fmt.Sprintf("match_p50_us=%.0f match_p95_us=%.0f", m.P50US, m.P95US))
	// Callback gauges, sorted for a stable line.
	r.mu.Lock()
	names := make([]string, 0, len(r.gauges))
	for name := range r.gauges {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	for _, name := range names {
		b, err := json.Marshal(snap[name])
		if err != nil {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s=%s", name, b))
	}
	return strings.Join(parts, " ")
}
