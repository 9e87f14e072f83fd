package main

// The benchmark's metrics: the names, units, directions and bounds that
// BENCHMARK.json at the repository root also lists (the test keeps the two
// in step).

import (
	"fmt"
	"math"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports all
// of them from the untraced run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"register_p10_ms", "ms", "lower", 0.25},
	{"find_p10_ms", "ms", "lower", 0.25},
	{"recall_at_5", "ratio", "higher", 0.05},
	{"wire_bytes_per_op", "B", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"heap_kb_per_user", "KB", "lower", 0.15},
}

// perLayer is what single layers cost; every workload reports all of them
// from the traced run.
var perLayer = []metricSpec{
	{Name: "keygen.fuzzy_us", Unit: "us", Better: "lower"},
	{Name: "keygen.self_us", Unit: "us", Better: "lower"},
	{Name: "oprf.blind_us", Unit: "us", Better: "lower"},
	{Name: "oprf.eval_rtt_us", Unit: "us", Better: "lower"},
	{Name: "oprf.server_eval_us", Unit: "us", Better: "lower"},
	{Name: "oprf.finalize_us", Unit: "us", Better: "lower"},
	{Name: "entropy.initdata_us", Unit: "us", Better: "lower"},
	{Name: "chain.seal_us", Unit: "us", Better: "lower"},
	{Name: "verify.auth_us", Unit: "us", Better: "lower"},
	{Name: "verify.vf_us", Unit: "us", Better: "lower"},
	{Name: "client.query_rtt_us", Unit: "us", Better: "lower"},
	{Name: "client.upload_rtt_us", Unit: "us", Better: "lower"},
	{Name: "device.register_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "device.find_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "device.register_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "device.register_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "device.find_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "device.find_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "core.results_per_find", Unit: "count", Better: "higher"},
	{Name: "core.vf_rejects", Unit: "count", Better: "lower"},
	{Name: "homopm.client_ms", Unit: "ms", Better: "lower"},
	{Name: "homopm.server_ms_per_candidate", Unit: "ms", Better: "lower"},
	{Name: "homopm.wire_bytes", Unit: "B", Better: "lower"},
	{Name: "homopm.client_ratio", Unit: "ratio", Better: "higher"},
	{Name: "homopm.server_ratio", Unit: "ratio", Better: "higher"},
	{Name: "homopm.wire_ratio", Unit: "ratio", Better: "higher"},
	{Name: "wire.req_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.req_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "service.query_us", Unit: "us", Better: "lower"},
	{Name: "service.upload_us", Unit: "us", Better: "lower"},
	{Name: "service.upload_batch_us", Unit: "us", Better: "lower"},
	{Name: "service.remove_us", Unit: "us", Better: "lower"},
	{Name: "match.knn_us", Unit: "us", Better: "lower"},
	{Name: "match.maxdist_us", Unit: "us", Better: "lower"},
	{Name: "match.upload_us", Unit: "us", Better: "lower"},
	{Name: "match.remove_us", Unit: "us", Better: "lower"},
	{Name: "match.bytes_per_user", Unit: "B", Better: "lower"},
	{Name: "match.bucket_max", Unit: "count", Better: "lower"},
	{Name: "server.handler_mean_us", Unit: "us", Better: "lower"},
	{Name: "server.queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "server.transport_residual_us", Unit: "us", Better: "lower"},
	{Name: "server.errors", Unit: "count", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.fsyncs_per_op", Unit: "ratio", Better: "lower"},
	{Name: "wal.fsync_mean_us", Unit: "us", Better: "lower"},
	{Name: "wal.batch_mean", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.tail_read_us", Unit: "us", Better: "lower"},
	{Name: "broker.publish_us", Unit: "us", Better: "lower"},
	{Name: "broker.notifies_sent", Unit: "count", Better: "higher"},
	{Name: "broker.notifies_dropped", Unit: "count", Better: "lower"},
	{Name: "broker.delivery_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.router_hop_us", Unit: "us", Better: "lower"},
	{Name: "cluster.router_hop_write_us", Unit: "us", Better: "lower"},
	{Name: "cluster.partitions_per_query", Unit: "count", Better: "lower"},
	{Name: "cluster.forwards_per_op", Unit: "count", Better: "lower"},
	{Name: "cluster.fanout_mean_us", Unit: "us", Better: "lower"},
	{Name: "cluster.repl_ack_wait_us", Unit: "us", Better: "lower"},
	{Name: "cluster.repl_lag_records", Unit: "count", Better: "lower"},
	{Name: "loadgen.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "loadgen.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p95_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher"},
	{Name: "loadgen.op_p10_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.op_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.op_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.trace_overhead_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "budget.read_rtt_us", Unit: "us", Better: "lower"},
	{Name: "budget.write_rtt_us", Unit: "us", Better: "lower"},
	{Name: "budget.read_handler_us", Unit: "us", Better: "lower"},
	{Name: "budget.write_handler_us", Unit: "us", Better: "lower"},
	{Name: "budget.read_gap_pct", Unit: "%", Better: "lower"},
	{Name: "budget.write_gap_pct", Unit: "%", Better: "lower"},
	{Name: "budget.register_gap_pct", Unit: "%", Better: "lower"},
	{Name: "budget.find_gap_pct", Unit: "%", Better: "lower"},
}

// fill moves values into the outcome under specs' names and units. A
// missing or non-finite value is an error: a run reports every metric of
// its set or nothing.
func fill(out *outcome, specs []metricSpec, values map[string]float64) error {
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: no finite value (%v)", m.Name, v)
		}
		out.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	return nil
}
