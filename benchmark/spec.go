package main

// metricSpec is one line of BENCHMARK.json's metric lists; bench_test.go
// checks that file against these.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEndSpec: what a caller of the system sees. An operation is one
// query or request. failed_share is not listed: the contract wants
// metrics that are never 0, and every run already reports attempted and
// failed operations and refuses to be correct with a single failure.
// peak_rss_mb did not hold its bound between two sets of identical runs
// (when the collector runs decides the high-water mark) and sits in the
// per-layer list as runtime.peak_rss_mb, as the issue prescribes.
//
// The bounds on the time-based metrics are the contract's maximum, not
// the 10–15 % the issue proposed. The reference host's speed is not
// steady: the same binary measured half an hour apart differs by up to
// 22 % in its ten-run medians, and a ten-run spread reaches 37 % when the
// host's other load changes mid-set (README.md, "Observed spreads"). The
// driver refuses a benchmark whose spread exceeds its bound, so a tighter
// bound would be refused on a bad half-hour. alloc_kb_per_op counts
// bytes, not time, and keeps the issue's 5 %.
var endToEndSpec = []metricSpec{
	{"setup_s", "s", lower, 0.25},
	{"latency_ms_p50", "ms", lower, 0.25},
	{"latency_ms_p95", "ms", lower, 0.25},
	{"latency_ms_geomean", "ms", lower, 0.25},
	{"throughput_ops_s", "1/s", higher, 0.25},
	{"cold_latency_ms_p50", "ms", lower, 0.25},
	{"alloc_kb_per_op", "kB", lower, 0.05},
}

// perLayerSpec: one layer each, named <module>.<metric>. README.md says
// which end-to-end metric each should move, and on which workload.
var perLayerSpec = []metricSpec{
	{Name: "server.overhead_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.overhead_small_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.overhead_large_ms_p50", Unit: "ms", Better: lower},
	{Name: "server.resp_bytes_per_op", Unit: "B", Better: lower},
	{Name: "resilience.queued_share", Unit: "share", Better: lower},
	{Name: "resilience.rejected_share", Unit: "share", Better: lower},
	{Name: "resilience.acquire_release_ns_p50", Unit: "ns", Better: lower},
	{Name: "sqlengine.parse_us_p50", Unit: "us", Better: lower},
	{Name: "sqlengine.plan_us_p50", Unit: "us", Better: lower},
	{Name: "sqlengine.exec_native_ms_geomean", Unit: "ms", Better: lower},
	{Name: "sqlengine.exec_rows_per_s", Unit: "rows/s", Better: higher},
	{Name: "sqlengine.morsels_per_op", Unit: "count", Better: lower},
	{Name: "sqlengine.rows_out_per_op", Unit: "rows", Better: lower},
	{Name: "sqlengine.vec_cse_hits_per_op", Unit: "count", Better: higher},
	{Name: "core.process_hit_us_p50", Unit: "us", Better: lower},
	{Name: "core.process_miss_us_p50", Unit: "us", Better: lower},
	{Name: "core.fusoptim_us_p50", Unit: "us", Better: lower},
	{Name: "core.codegen_share", Unit: "share", Better: lower},
	{Name: "core.plancache_hit_ratio", Unit: "share", Better: higher},
	{Name: "core.plancache_invalidations_per_write", Unit: "count", Better: lower},
	{Name: "core.sections_per_op", Unit: "count", Better: lower},
	{Name: "core.inline_sites_per_op", Unit: "count", Better: lower},
	{Name: "core.fallback_share", Unit: "share", Better: lower},
	{Name: "core.exec_fused_ms_geomean", Unit: "ms", Better: lower},
	{Name: "core.speedup_vs_native", Unit: "ratio", Better: higher},
	{Name: "ffi.calls_per_op", Unit: "count", Better: lower},
	{Name: "ffi.rows_in_per_op", Unit: "rows", Better: lower},
	{Name: "ffi.boundary_bytes_per_op", Unit: "B", Better: lower},
	{Name: "ffi.ipc_roundtrips_per_op", Unit: "count", Better: lower},
	{Name: "ffi.ipc_bytes_per_op", Unit: "B", Better: lower},
	{Name: "ffi.scalar_call_ns_per_row.vector", Unit: "ns", Better: lower},
	{Name: "ffi.scalar_call_ns_per_row.tuple", Unit: "ns", Better: lower},
	{Name: "ffi.scalar_call_ns_per_row.process", Unit: "ns", Better: lower},
	{Name: "ffi.box_ns_per_value", Unit: "ns", Better: lower},
	{Name: "pylite.parse_us_p50", Unit: "us", Better: lower},
	{Name: "pylite.define_ms", Unit: "ms", Better: lower},
	{Name: "pylite.compile_us.closure", Unit: "us", Better: lower},
	{Name: "pylite.compile_us.vm", Unit: "us", Better: lower},
	{Name: "pylite.call_ns.interp", Unit: "ns", Better: lower},
	{Name: "pylite.call_ns.closure", Unit: "ns", Better: lower},
	{Name: "pylite.call_ns.vm", Unit: "ns", Better: lower},
	{Name: "pylite.interp_calls_per_op", Unit: "count", Better: lower},
	{Name: "pylite.compiled_calls_per_op", Unit: "count", Better: lower},
	{Name: "pylite.vm_rows_per_op", Unit: "rows", Better: higher},
	{Name: "pylite.vm_bail_share", Unit: "share", Better: lower},
	{Name: "data.encode_chunk_mb_s", Unit: "MB/s", Better: higher},
	{Name: "data.decode_chunk_mb_s", Unit: "MB/s", Better: higher},
	{Name: "data.json_marshal_ns_per_value", Unit: "ns", Better: lower},
	{Name: "obs.accounting_overhead_pct", Unit: "%", Better: lower},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: lower},
	{Name: "trace.stage_share.parse", Unit: "share", Better: lower},
	{Name: "trace.stage_share.process", Unit: "share", Better: lower},
	{Name: "trace.stage_share.execute", Unit: "share", Better: higher},
	{Name: "trace.stage_share.admission_wait", Unit: "share", Better: lower},
	{Name: "trace.stage_share.server_exec", Unit: "share", Better: higher},
	{Name: "trace.stage_share.server_overhead", Unit: "share", Better: lower},
	{Name: "trace.coverage", Unit: "share", Better: higher},
	{Name: "trace.overhead_pct", Unit: "%", Better: lower},
}
