package main

// This file is the benchmark's definition: the workloads, the metrics
// with their units, directions and bounds, and the serve-open rates.
// BENCHMARK.json at the repository root is generated from it
// (`go run ./benchmark spec`), and the smoke test fails if the two
// disagree.

// workloadSpec names one workload and says why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadSpecs = []workloadSpec{
	{"submit-loop", "closed loop of System.Submit on a durable hstore: engine, jobdsl and cbo do the work; matcher and store do little"},
	{"match-scale", "Matcher.Match against about 1500 profiles on a 3-server dstore: matcher, dstore scans and hstore do all the work; engine and cbo none"},
	{"store-mixed", "two clients doing Get, BatchPut, MultiGet and Scan over the /d/* HTTP wire with replication: dstore and hstore only, writes beside reads"},
	{"serve-open", "open-loop gateway traffic at four fixed rates with a what-if working set larger than the evaluator cache: gateway and cbo dominate"},
}

// metricSpec is one metric. Bound applies to end-to-end metrics only.
// Layer, How and Moves document per-layer metrics: where the number
// comes from and which end-to-end metric it should move, and where.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	Layer  string
	How    string
	Moves  string
}

// The end-to-end metrics every workload reports over its primary
// operation (submit-loop: one Submit; match-scale: one Match;
// store-mixed: one 7-row BatchPut; serve-open: one gateway request —
// p50_ms from its due time at the mid rate, p95_ms from its send time at
// the over rate (see serve.go), ops_s OK responses per second there).
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
	{Name: "ops_s", Unit: "1/s", Better: higher, Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "p95_ms", Unit: "ms", Better: lower, Bound: 0.25},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: lower, Bound: 0.10},
}

const (
	lower  = "lower"
	higher = "higher"
)

var perLayer = []metricSpec{
	// Workload-specific end-to-end numbers. The run contract has every
	// workload report every gated metric, so the ones that exist on a
	// single workload are listed here, ungated (see README).
	{"store.get_p50_ms", "ms", lower, 0, "dstore", "store-mixed: point Get over the wire, median", "itself"},
	{"store.get_p95_ms", "ms", lower, 0, "dstore", "store-mixed: point Get over the wire, p95", "itself"},
	{"store.scan_rows_s", "rows/s", higher, 0, "dstore", "store-mixed: rows returned by range scans per second of scan time", "itself"},
	{"store.misread_share", "ratio", lower, 0, "hstore", "store-mixed: rows point-read that were not the bytes last written although a range scan returned them right (known defect, see README) / rows point-read", "correctness: 0 once fixed"},
	{"store.space_amp", "ratio", lower, 0, "hstore", "store-mixed: checkpointed sstable bytes / live user bytes after the final flush", "itself"},
	{"serve.lo_p95_ms", "ms", lower, 0, "gateway", "serve-open: p95 from due time at the lo rate", "itself"},
	{"serve.mid_p95_ms", "ms", lower, 0, "gateway", "serve-open: p95 from due time at the mid rate", "itself"},
	{"serve.hi_p95_ms", "ms", lower, 0, "gateway", "serve-open: p95 from due time at the hi rate", "itself"},
	{"serve.over_p95_ms", "ms", lower, 0, "gateway", "serve-open: p95 from due time at the over rate", "itself"},
	{"serve.max_ok_rps", "1/s", higher, 0, "gateway", "serve-open: highest fixed rate with p95 <= 50 ms, no failures, backlog not growing", "itself"},
	{"serve.refused_share", "ratio", lower, 0, "gateway", "serve-open: 429/503/504 responses / requests", "error count"},
	{"p99_ms", "ms", lower, 0, "all", "p99 of the primary operation when it has >= 1000 samples, else 0", "itself"},
	{"samples", "count", higher, 0, "all", "primary-operation samples behind p50_ms/p95_ms", "context"},

	{"engine.sample_ms", "ms", lower, 0, "engine", "span around Engine.CollectSample in the re-enacted Submit", "submit-loop p50_ms p95_ms ops_s; serve-open match share; not match-scale, store-mixed"},
	{"engine.run_ms", "ms", lower, 0, "engine", "span around Engine.Run in the re-enacted Submit", "submit-loop p50_ms p95_ms ops_s; not match-scale, store-mixed"},
	{"engine.share", "ratio", lower, 0, "engine", "engine self time / Submit time", "submit-loop ops_s"},
	{"jobdsl.parse_cfg_us", "us", lower, 0, "jobdsl", "probe: parse -> CFG -> call signature per Table 6.1 source", "engine.sample_ms -> submit-loop p50_ms; nothing else"},

	{"matcher.match_ms", "ms", lower, 0, "matcher", "span around Matcher.Match", "match-scale p50_ms ops_s; serve-open only through its 10 % match share"},
	{"matcher.self_ms", "ms", lower, 0, "matcher", "match span minus the matcher.Store decorator's spans", "match-scale p50_ms"},
	{"matcher.share", "ratio", lower, 0, "matcher", "matcher self time / primary-operation time", "context"},
	{"matcher.rows_scanned_per_match", "count", lower, 0, "matcher", "hstore.TransferStats delta over one probe cycle (exact)", "match-scale p50_ms"},
	{"matcher.rows_returned_per_match", "count", lower, 0, "matcher", "hstore.TransferStats delta over one probe cycle (exact)", "match-scale p50_ms"},
	{"matcher.stage2_keys_per_match", "count", lower, 0, "matcher", "keys asked of MultiGetFeatures/GetFeatures per match (exact)", "match-scale p50_ms"},
	{"matcher.kv_calls_per_match", "count", lower, 0, "matcher", "core.KV decorator calls per match (exact)", "match-scale p50_ms"},
	{"matcher.match_accuracy", "ratio", higher, 0, "matcher", "probes whose winner has the probe's job name / probes (exact)", "correctness"},

	{"cbo.optimize_ms", "ms", lower, 0, "cbo", "span around the optimizer call (submit-loop); tune_latency_ms mean (serve-open)", "serve-open p50_ms ops_s serve.hi_p95_ms; submit-loop p50_ms; not match-scale, store-mixed"},
	{"cbo.evals_per_tune", "count", lower, 0, "cbo", "Recommendation.Evaluations / tune_evaluations_total per tune (exact)", "cbo.optimize_ms"},
	{"cbo.share", "ratio", lower, 0, "cbo", "optimizer time / primary-operation time", "context"},
	{"whatif.predict_us", "us", lower, 0, "whatif", "probe: PredictRuntime over seeded configurations", "cbo.optimize_ms -> serve-open ops_s"},
	{"whatif.cache_hit_ratio", "ratio", higher, 0, "whatif", "tune_cache_hits / (hits + misses) delta", "serve-open ops_s serve.hi_p95_ms"},
	{"whatif.evaluator_contended_ns", "ns", lower, 0, "whatif", "probe: per-call cost with nproc goroutines on one Evaluator minus with one", "serve-open ops_s serve.hi_p95_ms; not submit-loop"},

	{"core.putprofile_ms", "ms", lower, 0, "core", "span around Store.PutProfile", "submit-loop p95_ms; serve-open submit share; not match-scale"},
	{"core.loadprofile_ms", "ms", lower, 0, "core", "matcher.Store decorator span around LoadProfile", "submit-loop p50_ms"},
	{"core.kv_calls_per_putprofile", "count", lower, 0, "core", "core.KV decorator calls under PutProfile, bounds read-modify-write included", "core.putprofile_ms"},
	{"core.submit_self_ms", "ms", lower, 0, "core", "Submit span minus engine, matcher, cbo and store spans", "submit-loop p50_ms"},
	{"core.share", "ratio", lower, 0, "core", "core self time / primary-operation time", "context"},

	{"gateway.handler_tune_ms", "ms", lower, 0, "gateway", "http.Handler decorator span, /g/tune", "serve-open p50_ms serve.max_ok_rps"},
	{"gateway.handler_whatif_ms", "ms", lower, 0, "gateway", "http.Handler decorator span, /g/whatif", "serve-open p50_ms"},
	{"gateway.handler_match_ms", "ms", lower, 0, "gateway", "http.Handler decorator span, /g/match", "serve-open p95_ms"},
	{"gateway.handler_submit_ms", "ms", lower, 0, "gateway", "http.Handler decorator span, /g/submit", "serve-open p95_ms"},
	{"gateway.handler_profiles_ms", "ms", lower, 0, "gateway", "http.Handler decorator span, /g/profiles", "serve-open p50_ms"},
	{"gateway.http_overhead_ms", "ms", lower, 0, "gateway", "client-observed time minus handler span, per request", "serve-open p50_ms; not the other three"},
	{"gateway.self_ms", "ms", lower, 0, "gateway", "handler span minus KV spans minus tune_latency_ms, per request (engine work of match/submit has no seam and stays in here)", "serve-open p50_ms"},
	{"gateway.share", "ratio", lower, 0, "gateway", "gateway self time / request time", "context"},
	{"gateway.coalesce_hit_ratio", "ratio", higher, 0, "gateway", "gateway_coalesce_hits / (hits + leaders) delta", "serve-open ops_s"},
	{"gateway.shed_share", "ratio", lower, 0, "gateway", "gateway_shed_total / gateway_requests_total delta", "error count"},
	{"gateway.generator_late_ms", "ms", lower, 0, "client", "mean delay between a request's due time and its send at the mid rate", "validity of serve-open latencies"},
	{"gateway.generator_late_over_ms", "ms", lower, 0, "client", "the same at the over rate: the backlog an overloaded server builds in the generator", "serve.max_ok_rps"},

	{"dstore.client_self_us", "us", lower, 0, "dstore", "client-call span minus ServerConn spans, per primary operation", "store-mixed p50_ms store.get_p50_ms; match-scale p50_ms; not submit-loop"},
	{"dstore.client_share", "ratio", lower, 0, "dstore", "routing-client self time / primary-operation time", "context"},
	{"dstore.retries_per_op", "ratio", lower, 0, "dstore", "dstore_client_retries_total / dstore_client_ops_total delta", "p95_ms"},
	{"dstore.meta_refresh_per_op", "ratio", lower, 0, "dstore", "dstore_client_meta_refresh_total / ops delta", "p95_ms"},
	{"dstore.scan_fanout", "count", lower, 0, "dstore", "scan_parallel_fanout histogram mean", "match-scale p50_ms"},
	{"dstore.hedges_per_op", "ratio", lower, 0, "dstore", "(hedged_reads_total + hedged_scans_total) / ops delta", "p95_ms"},
	{"dstore.wire_us_per_call", "us", lower, 0, "dstore", "probe: one seeded call sequence on an HTTP cluster minus the same on an in-process cluster, per call", "store-mixed ops_s store.get_p50_ms store.scan_rows_s; not match-scale, serve-open"},
	{"dstore.wire_bytes_per_user_byte", "ratio", lower, 0, "dstore", "probe: HTTP body bytes counted by the handler decorator / row bytes moved (exact)", "store-mixed ops_s"},
	{"dstore.wire_share", "ratio", lower, 0, "dstore", "wire self time (client call minus server handler) / primary-operation time", "store-mixed ops_s"},
	{"dstore.rs_share", "ratio", lower, 0, "dstore", "region-server self time, hstore included (no seam between them) / primary-operation time", "context"},
	{"dstore.repl_share", "ratio", lower, 0, "dstore", "replication round (the leader's Apply call through the follower's handler) / primary-operation time", "store-mixed ops_s p95_ms"},
	{"dstore.rs_put_ms", "ms", lower, 0, "dstore", "dstore_rs_put_latency_ms mean over all servers", "store-mixed ops_s p95_ms"},
	{"dstore.rs_replication_ms", "ms", lower, 0, "dstore", "dstore_rs_replication_latency_ms mean", "store-mixed ops_s p95_ms"},
	{"dstore.replication_share", "ratio", lower, 0, "dstore", "replication latency sum / put latency sum", "store-mixed ops_s; not read-only phases"},
	{"dstore.applies_per_put", "ratio", lower, 0, "dstore", "dstore_rs_apply_total / put count delta", "store-mixed ops_s"},

	{"hstore.share", "ratio", lower, 0, "hstore", "in-process hstore client time / primary-operation time (submit-loop)", "context"},
	{"hstore.memstore_put_us", "us", lower, 0, "hstore", "probe: PutRow on hstore.Connect(NewServer())", "store-mixed p50_ms"},
	{"hstore.wal_append_us", "us", lower, 0, "hstore", "probe: Put on OpenDurableWith{SyncWAL: false}", "submit-loop p95_ms"},
	{"hstore.wal_fsync_append_us", "us", lower, 0, "hstore", "probe: Put on OpenDurableWith{SyncWAL: true}", "context: the cost the stated flush policy avoids"},
	{"hstore.sstable_scan_rows_s", "rows/s", higher, 0, "hstore", "probe: full Scan of a flushed table", "match-scale p50_ms"},
	{"hstore.flushes", "count", lower, 0, "hstore", "hstore_flushes_total delta", "store-mixed p95_ms store.space_amp"},
	{"hstore.compactions", "count", lower, 0, "hstore", "hstore_compactions_total + compaction_tier_merges_total delta", "store-mixed p95_ms store.space_amp"},
	{"hstore.compaction_segments", "count", lower, 0, "hstore", "compaction_tier_segments histogram mean", "store-mixed p95_ms"},
	{"hstore.bloom_skip_ratio", "ratio", higher, 0, "hstore", "hstore_bloom_skips / hstore_bloom_checks delta", "store.get_p50_ms; match-scale p50_ms"},
	{"hstore.block_compress_ratio", "ratio", higher, 0, "hstore", "sstable_block_compress_ratio histogram mean", "store.space_amp"},

	{"submit.tuned", "count", higher, 0, "core", "submissions that ran tuned, over the first popularity cycle (exact)", "correctness"},
	{"submit.own_match_share", "ratio", higher, 0, "matcher", "repeats of a stored job whose donors were both its own profile / repeats of stored jobs (the rest are composite matches with a sibling job)", "correctness"},
	{"submit.stored", "count", higher, 0, "core", "submissions that stored a profile, over the first popularity cycle (exact)", "correctness"},

	{"process.peak_rss_mb", "MiB", lower, 0, "process", "/proc/self/status VmHWM", "context"},
	{"process.gc_pause_ms", "ms", lower, 0, "process", "MemStats.PauseTotalNs delta over the traced window", "p95_ms"},
	{"process.gc_cpu_share", "ratio", lower, 0, "process", "runtime/metrics gc cpu-seconds / total cpu-seconds", "ops_s"},
	{"process.mutex_wait_ms", "ms", lower, 0, "process", "runtime/metrics /sync/mutex/wait/total delta", "should track whatif.evaluator_contended_ns on serve-open"},
	{"trace.overhead_share", "ratio", lower, 0, "trace", "1 - traced ops_s / untraced ops_s, the two halves of a traced run", "validity of the per-layer numbers"},
	{"trace.unadopted_share", "ratio", lower, 0, "trace", "spans recorded without a parent (server side of the wire, replication) that no enclosing client-side call adopted / such spans", "validity: the run fails above 2 %"},
	{"trace.spans", "count", lower, 0, "trace", "spans recorded", "context"},
	{"trace.primary_op_ms", "ms", lower, 0, "trace", "mean traced end-to-end time of the primary operation: what the *.share metrics are shares of", "context"},
}

// serve-open's frozen schedule. The rates are shares of the closed-loop
// capacity of the request mix measured once on the reference host with
// the generator's own two connections (see README: how the rates were
// chosen); they are constants so that every commit meets the same load.
const (
	serveLimitMs = 50.0 // latency limit on p95 from due time

	serveCapacityRPS = 600.0
)

type servePhase struct {
	name  string
	rate  float64 // requests per second
	share float64 // of the measured window
}

var servePhases = []servePhase{
	{"lo", 0.20 * serveCapacityRPS, 0.10},
	{"mid", 0.35 * serveCapacityRPS, 0.45},
	{"hi", 0.55 * serveCapacityRPS, 0.15},
	{"over", 1.30 * serveCapacityRPS, 0.30},
}

// benchmarkFile is the shape of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []fileMetric   `json:"end_to_end"`
	PerLayer   []fileMetric   `json:"per_layer"`
}

type fileMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

const defaultRunSeconds = 23

func benchmarkSpec() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: defaultRunSeconds,
		Workloads:  workloadSpecs,
	}
	for _, m := range endToEnd {
		b := m.Bound
		bf.EndToEnd = append(bf.EndToEnd, fileMetric{m.Name, m.Unit, m.Better, &b})
	}
	for _, m := range perLayer {
		bf.PerLayer = append(bf.PerLayer, fileMetric{m.Name, m.Unit, m.Better, nil})
	}
	return bf
}
