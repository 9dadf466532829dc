package main

// metricDef names one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same metrics in the same order; a test holds
// the two together.
type metricDef struct {
	name   string
	unit   string
	better string  // "higher" or "lower"
	bound  float64 // end-to-end only: the share by which the metric may worsen
}

// defaultSeconds is BENCHMARK.json's run_seconds: the three windows together.
const defaultSeconds = 15

// endToEnd is what a user of the server sees, per workload. Failures are
// not a metric here because they must be zero: they are the "failed" and
// "attempted" counts of the result line, and fail the run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_p50_us", "us", "lower", 0.25},
	{"lat_p90_us", "us", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.25},
	{"server_rss_mb", "MiB", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is one ledger line per layer. Group (a) is seen from outside an
// end-to-end run; group (b) comes from the traced in-process layer suite.
var perLayer = []metricDef{
	// (a) STATS/INFO deltas over the windows, /proc, and the generator.
	{name: "server.mean_batch", unit: "count", better: "higher"},
	{name: "server.batch_le2_frac", unit: "frac", better: "lower"},
	{name: "server.phase_queue_us", unit: "us", better: "lower"},
	{name: "server.phase_journal_us", unit: "us", better: "lower"},
	{name: "server.phase_fence_us", unit: "us", better: "lower"},
	{name: "server.phase_apply_us", unit: "us", better: "lower"},
	{name: "server.phase_ack_us", unit: "us", better: "lower"},
	{name: "server.read_retries_per_kget", unit: "count", better: "lower"},
	{name: "server.read_fallbacks_per_kget", unit: "count", better: "lower"},
	{name: "server.busy_frac", unit: "frac", better: "lower"},
	{name: "pmem.fences_per_mut", unit: "count", better: "lower"},
	{name: "pmem.flushes_per_mut", unit: "count", better: "lower"},
	{name: "pmem.writes_per_mut", unit: "count", better: "lower"},
	{name: "pmem.fences_journal_per_mut", unit: "count", better: "lower"},
	{name: "pmem.fences_user_data_per_mut", unit: "count", better: "lower"},
	{name: "pmem.fences_alloc_redo_per_mut", unit: "count", better: "lower"},
	{name: "pmem.kill9_acked_lost_frac", unit: "frac", better: "lower"},
	{name: "alloc.heap_bytes_per_key", unit: "B", better: "lower"},
	{name: "workloads.chain_hops_per_get", unit: "count", better: "lower"},
	{name: "workloads.buckets_used_frac", unit: "frac", better: "higher"},
	{name: "pool.restart_s", unit: "s", better: "lower"},
	{name: "client.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "client.host_factor", unit: "ratio", better: "lower"},
	{name: "client.gen_late_p50_us", unit: "us", better: "lower"},
	{name: "client.gen_late_p99_us", unit: "us", better: "lower"},
	{name: "client.achieved_frac", unit: "frac", better: "higher"},
	{name: "client.failed_frac", unit: "frac", better: "lower"},
	{name: "client.samples", unit: "count", better: "higher"},
	{name: "client.get_p50_us", unit: "us", better: "lower"},
	{name: "client.get_p90_us", unit: "us", better: "lower"},
	{name: "client.get_p99_us", unit: "us", better: "lower"},
	{name: "client.get_p999_us", unit: "us", better: "lower"},
	{name: "client.set_p50_us", unit: "us", better: "lower"},
	{name: "client.set_p90_us", unit: "us", better: "lower"},
	{name: "client.set_p99_us", unit: "us", better: "lower"},
	{name: "client.set_p999_us", unit: "us", better: "lower"},
	// (b) the traced layer suite: ns and allocations per call.
	{name: "server.parse_ns", unit: "ns", better: "lower"},
	{name: "server.parse_allocs", unit: "count", better: "lower"},
	{name: "server.batcher_rtt_us.b1", unit: "us", better: "lower"},
	{name: "server.batcher_rtt_us.b32", unit: "us", better: "lower"},
	{name: "workloads.getview_ns.lf1", unit: "ns", better: "lower"},
	{name: "workloads.getview_ns.lf64", unit: "ns", better: "lower"},
	{name: "workloads.getview_ns.tenant", unit: "ns", better: "lower"},
	{name: "workloads.getview_allocs", unit: "count", better: "lower"},
	{name: "workloads.get_locked_ns.lf1", unit: "ns", better: "lower"},
	{name: "workloads.apply_ns.overwrite_b1", unit: "ns", better: "lower"},
	{name: "workloads.apply_ns.overwrite_b32", unit: "ns", better: "lower"},
	{name: "workloads.apply_ns.insert_b32", unit: "ns", better: "lower"},
	{name: "workloads.apply_ns.delete_b32", unit: "ns", better: "lower"},
	{name: "corundumeng.load_ns", unit: "ns", better: "lower"},
	{name: "corundumeng.store_ns", unit: "ns", better: "lower"},
	{name: "pool.tx_empty_ns", unit: "ns", better: "lower"},
	{name: "pool.view_load_ns", unit: "ns", better: "lower"},
	{name: "journal.datalog_ns", unit: "ns", better: "lower"},
	{name: "journal.commit_ns", unit: "ns", better: "lower"},
	{name: "alloc.claim_ns", unit: "ns", better: "lower"},
	{name: "alloc.free_ns", unit: "ns", better: "lower"},
	{name: "pmem.write_ns", unit: "ns", better: "lower"},
	{name: "pmem.flush_ns", unit: "ns", better: "lower"},
	{name: "pmem.fence_ns", unit: "ns", better: "lower"},
	{name: "pmem.modelled_flush_ns", unit: "ns", better: "lower"},
	{name: "pmem.modelled_fence_ns", unit: "ns", better: "lower"},
	{name: "trace.span_overhead_frac", unit: "frac", better: "lower"},
	{name: "ledger.parse_us", unit: "us", better: "lower"},
	{name: "ledger.store_us", unit: "us", better: "lower"},
	{name: "ledger.journal_us", unit: "us", better: "lower"},
	{name: "ledger.alloc_us", unit: "us", better: "lower"},
	{name: "ledger.pmem_us", unit: "us", better: "lower"},
	{name: "ledger.unattributed_frac", unit: "frac", better: "lower"},
}
