package main

// metricDef names a metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json at the repository root repeats
// them with direction and bound, and the smoke test holds the two equal.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are the gated metrics, the same three on every
// workload: the ones this host repeats within a bound (README, "Why
// throughput, latency and CPU are not gated").
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"stored_bytes_per_raw_byte", "B/B"},
	{"psnr_db", "dB"},
}

// layerMetrics are the timed metrics, then what is measured from outside
// each layer: times from the traced pass, counts from the timed passes. A
// metric that does not apply to a workload reads 0 there.
var layerMetrics = []metricDef{
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"pass.ops_per_s", "1/s"},
	{"pass.latency_p50_ms", "ms"},
	{"pass.cpu_ms_per_op", "ms"},
	{"source.fill_ms_per_op", "ms"},
	{"transform.forward4d_ms_per_op", "ms"},
	{"transform.forward4d_mb_per_s", "MB/s"},
	{"transform.inverse4d_ms_per_op", "ms"},
	{"compress.threshold_ms_per_op", "ms"},
	{"codec.encode_ms_per_op", "ms"},
	{"core.compress_window_ms_per_op", "ms"},
	{"core.compress_self_ms_per_op", "ms"},
	{"core.decompress_ms_per_op", "ms"},
	{"core.decode_self_ms_per_op", "ms"},
	{"core.decompress_levels_ms_per_op", "ms"},
	{"storage.append_ms_per_op", "ms"},
	{"storage.write_ms_per_op", "ms"},
	{"storage.fsync_ms_per_op", "ms"},
	{"storage.bytes_written_per_op", "B"},
	{"storage.write_calls_per_op", "count"},
	{"storage.fsync_calls_per_op", "count"},
	{"storage.read_ms_per_op", "ms"},
	{"storage.bytes_read_per_op", "B"},
	{"storage.read_calls_per_op", "count"},
	{"storage.prefix_read_fraction", "B/B"},
	{"ingest.serial_op_ms", "ms"},
	{"ingest.overlap_factor", "x"},
	{"ingest.engine_overhead_cpu_ms_per_op", "ms"},
	{"ingest.backpressure_events_per_op", "count"},
	{"ingest.peak_inflight_mb", "MB"},
	{"ingest.latency_p90_ms", "ms"},
	{"server.self_ms_per_op", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.decompressions_per_op", "count"},
	{"server.partial_decodes_per_op", "count"},
	{"server.coalesced_per_op", "count"},
	{"server.bytes_served_per_op", "B"},
	{"server.latency_p90_ms", "ms"},
	{"server.latency_p99_ms", "ms"},
	{"server.slice_hot_p50_ms", "ms"},
	{"server.crop_hot_p50_ms", "ms"},
	{"server.preview_hot_p50_ms", "ms"},
	{"server.render_hot_p50_ms", "ms"},
	{"process.allocs_per_op", "count"},
	{"process.alloc_bytes_per_op", "B"},
	{"process.gc_pause_ms_total", "ms"},
	{"process.heap_peak_mb", "MB"},
	{"process.rss_peak_mb", "MB"},
	{"host.cores", "count"},
	{"host.gomaxprocs", "count"},
	{"host.triad_gb_per_s", "GB/s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

// timedMetrics are what the timed passes measure, untraced, on every run:
// printed always, reported with the per-layer metrics. The first three are
// the fast decile over the blocks of the five passes; the pass.* three are
// the issue's statistic, the median over the five passes of each whole
// pass's value, which sees what the fast decile cannot: a stall or pause
// that hits few blocks.
var timedMetrics = layerMetrics[:6]
