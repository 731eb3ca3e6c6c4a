package main

// metricDef declares one metric the command emits. BENCHMARK.json repeats
// the end-to-end and per-layer tables; a test keeps the two in step.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"` // "lower" or "higher"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before it counts as a regression.
	Bound float64 `json:"bound"`
}

// endToEnd are the metrics every workload reports with tracing off, the
// ones BENCHMARK.json gates. They mean the same thing everywhere: what one
// repetition of the workload's journey costs the user in time, processor
// and memory.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"journey_s", "s", "lower", 0.25},
	{"journey_cpu_s", "s", "lower", 0.25},
	{"journey_alloc_mb", "MB", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// named are each workload's own user-visible metrics, printed and written
// to the report next to the end-to-end ones, with the bounds ISSUE 11 sets.
// BENCHMARK.json cannot list them, because no workload measures them all;
// -repeat holds two sets of runs to them.
var named = map[string][]metricDef{
	"pingpong": {
		{"unlogged_call_us", "us", "lower", 0.10},
		{"logged_call_us", "us", "lower", 0.10},
		{"wrapup_ms_per_mrec", "ms/Mrec", "lower", 0.10},
	},
	"thumbnail": {
		{"e2e_first_tile_s", "s", "lower", 0.10},
		{"time_to_timeline_s", "s", "lower", 0.10},
		{"diagnose_s", "s", "lower", 0.10},
	},
	"bigtrace": {
		{"time_to_timeline_s", "s", "lower", 0.10},
		{"diagnose_s", "s", "lower", 0.10},
		{"diff_s", "s", "lower", 0.10},
		{"window_query_ms", "ms", "lower", 0.10},
	},
	"serve_session": {
		{"tile_cold_p50_ms", "ms", "lower", 0.10},
		{"tile_cold_p99_ms", "ms", "lower", 0.15},
		{"tile_warm_p50_ms", "ms", "lower", 0.15},
		{"session_req_per_s", "1/s", "higher", 0.10},
	},
}

// perLayer are the metrics of single layers, taken in the traced pass by
// timing the layer's public calls on the workload's own log.
var perLayer = []metricDef{
	{"fmtspec.parse_ns", "ns", "lower", 0},
	{"fmtspec.encode_ns", "ns", "lower", 0},
	{"mpi.roundtrip_ns", "ns", "lower", 0},
	{"mpi.msgs", "count", "lower", 0},
	{"mpi.bytes", "count", "lower", 0},
	{"core.call_self_ns", "ns", "lower", 0},
	{"core.logging_glue_ns", "ns", "lower", 0},
	{"mpe.state_pair_ns", "ns", "lower", 0},
	{"mpe.event_ns", "ns", "lower", 0},
	{"mpe.log_send_ns", "ns", "lower", 0},
	{"mpe.finish_s", "s", "lower", 0},
	{"mpe.finish_records", "count", "lower", 0},
	{"mpe.finish_mb", "MB", "lower", 0},
	{"mpe.finish_idx_extra_pct", "%", "lower", 0},
	{"clog2.encode_mb_s", "MB/s", "higher", 0},
	{"clog2.decode_mb_s", "MB/s", "higher", 0},
	{"clog2.records", "count", "lower", 0},
	{"vis.pipeline_to_repo_s", "s", "lower", 0},
	{"vis.decode_passes", "count", "lower", 0},
	{"vis.stage_sum_ratio", "ratio", "lower", 0},
	{"slog2.convert_s", "s", "lower", 0},
	{"slog2.convert_mrec_s", "Mrec/s", "higher", 0},
	{"slog2.write_s", "s", "lower", 0},
	{"slog2.read_s", "s", "lower", 0},
	{"slog2.file_mb", "MB", "lower", 0},
	{"slog2.query_us", "us", "lower", 0},
	{"stats.profile_s", "s", "lower", 0},
	{"stats.window_indexed_ms", "ms", "lower", 0},
	{"stats.window_scan_ms", "ms", "lower", 0},
	{"idx.build_s", "s", "lower", 0},
	{"idx.file_kb", "KB", "lower", 0},
	{"idx.load_us", "us", "lower", 0},
	{"idx.visited_ratio", "ratio", "lower", 0},
	{"analyze.verdict_s", "s", "lower", 0},
	{"analyze.verdict_mb_s", "MB/s", "higher", 0},
	{"analyze.diff_s", "s", "lower", 0},
	{"analyze.diff_mb_s", "MB/s", "higher", 0},
	{"analyze.diff_alloc_mb", "MB", "lower", 0},
	{"jumpshot.render_full_ms", "ms", "lower", 0},
	{"jumpshot.tile_1pct_ms", "ms", "lower", 0},
	{"jumpshot.legend_ms", "ms", "lower", 0},
	{"jumpshot.search_ms", "ms", "lower", 0},
	{"jumpshot.svg_mb", "MB", "lower", 0},
	{"serve.render_tile_ms", "ms", "lower", 0},
	{"serve.http_floor_ms", "ms", "lower", 0},
	{"serve.tile_hit_ratio", "ratio", "higher", 0},
	{"serve.decodes", "count", "lower", 0},
	{"serve.tiles_shared", "count", "higher", 0},
	{"serve.not_modified", "count", "higher", 0},
	{"serve.bytes_sent_mb", "MB", "lower", 0},
	{"serve.errors", "count", "lower", 0},
	{"thumbnail.run_s", "s", "lower", 0},
	{"thumbnail.run_unlogged_s", "s", "lower", 0},
	{"thumbnail.wrapup_ms", "ms", "lower", 0},
	{"jpeglite.codec_s", "s", "lower", 0},
	{"trace_overhead_pct", "%", "lower", 0},
}
