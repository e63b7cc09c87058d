package main

// workloadSpec describes one workload. The three serving workloads run the
// real binaries as subprocesses; kg_batch runs the pipeline in process.
type workloadSpec struct {
	Name string
	Why  string

	// Serving topology: Serves serve processes over one WAL directory,
	// optionally behind a router process (0 = an in-process workload).
	// ServeArgs are the only non-default flags the serve processes get.
	Router    bool
	Serves    int
	ServeArgs []string

	// Session population: Sessions ownership graphs from internal/synth,
	// a ControlChainJoint(chain, Joint) when Joint > 0, else a
	// ControlChain(chain), chain uniform in [ChainMin, ChainMax].
	Sessions           int
	ChainMin, ChainMax int
	Joint              int

	// Load: open-loop Poisson arrivals at Rate per second with the
	// read/explain/write Mix (percent), then a closed loop with the same
	// mix. Zipf skews explain targets within a session. Writes go to the
	// first WriteSessions sessions only (0 = to any).
	Rate          float64
	Mix           [numClasses]int
	Zipf          bool
	WriteSessions int

	// Setups is how many times a run sets the workload up (start the tier
	// and populate it, or generate and compile for kg_batch); setup_s is
	// the median.
	Setups int

	// kg_batch only: instances are synth.RandomControl(Layers, Width).
	Layers, Width int
}

// Phase shares of --seconds on the serving workloads. The two measured
// phases add up to --seconds; the warm-up before them comes on top, as
// set-up does.
const (
	openLoopShare   = 0.75
	closedLoopShare = 0.25
	warmupShare     = 0.15
)

// workloads is the benchmark's fixed set. Sizes are the ISSUE's, shrunk in
// proportion so that 92 driver runs fit the contract's time cap (see
// README.md, "Sizes").
var workloads = []*workloadSpec{
	{
		Name:     "tier_resident",
		Why:      "Interactive path, every session resident: router, session lookup, explain cache and memo, mapping and JSON encode do the work; WAL and restore do almost none.",
		Router:   true,
		Serves:   2,
		Sessions: 400, ChainMin: 12, ChainMax: 24, Joint: 3,
		Rate: 300, Mix: [numClasses]int{60, 30, 10}, Zipf: true,
		// An analyst runs what-ifs on the few scenarios in hand. A
		// session's first write stands its maintainer up with a full
		// chase and costs twice a later one; with writes spread over all
		// 400 sessions half the timed writes were first writes, and the
		// median sat in the gap between the two kinds.
		WriteSessions: 40,
		Setups:        2,
	},
	{
		Name:      "tier_churn",
		Why:       "Working set 23x the session cache, so over 90% of touches restore: snapshot read, RestoreLive, WAL tail replay, retirement and LRU eviction do the work; chase and explain are trivial.",
		Router:    true,
		Serves:    2,
		ServeArgs: []string{"-max-sessions", "64", "-compact-threshold", "8"},
		Sessions:  1500, ChainMin: 8, ChainMax: 8,
		Rate: 200, Mix: [numClasses]int{70, 20, 10},
		Setups: 2,
	},
	{
		Name:      "worker_write",
		Why:       "One worker, no router, 80% durable writes: WAL append and fsync, incremental repair, group commit and compaction do the work, reads run beside writes; router changes predict no change.",
		Serves:    1,
		ServeArgs: []string{"-compact-threshold", "32"},
		Sessions:  64, ChainMin: 30, ChainMax: 30,
		Rate: 100, Mix: [numClasses]int{10, 10, 80},
		Setups: 4,
	},
	{
		Name:   "kg_batch",
		Why:    "In-process pipeline on large ownership graphs (paper Fig. 18 plus the reasoning it excludes): load, join, emission, proof extraction, mapping, rendering; server, router and WAL do nothing.",
		Layers: 6, Width: 2000,
		Setups: 5,
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// metricDef names one metric and its unit, in BENCHMARK.json's terms.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees; an untraced run
// prints exactly these. Every workload reports every one (README.md says
// what each means on kg_batch, which has no requests).
var endToEnd = []metricDef{
	{"read_p50_ms", "ms"},
	{"explain_p50_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"open_p50_ms", "ms"},
	{"sat_ops_s", "1/s"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics; a traced run prints exactly these.
// A metric the workload does not exercise (router.hop_us without a router,
// every server.* on kg_batch) or whose /stats key is absent is printed as 0
// and listed on the "absent:" line.
var perLayer = []metricDef{
	{"parser.us_per_fact", "us"},
	{"core.compile_ms", "ms"},
	{"core.reason_s", "s"},
	{"database.load_s", "s"},
	{"database.add_ns_per_fact", "ns"},
	{"chase.eval_s", "s"},
	{"chase.steps", "count"},
	{"chase.rounds", "count"},
	{"chase.small_run_us", "us"},
	{"core.explain_all_s", "s"},
	{"chase.extract_proof_us", "us"},
	{"chase.proof_steps_mean", "count"},
	{"mapping.map_us", "us"},
	{"mapping.segments_per_proof", "count"},
	{"template.render_us", "us"},
	{"core.explain_cold_us", "us"},
	{"core.explain_warm_us", "us"},
	{"core.explain_cache_hit_share", "share"},
	{"incremental.add_us", "us"},
	{"incremental.retract_us", "us"},
	{"incremental.overdeleted_per_retract", "count"},
	{"core.commit_submit_us", "us"},
	{"core.commit_mean_batch", "count"},
	{"wal.append_us", "us"},
	{"wal.sync_us", "us"},
	{"wal.bytes_per_delta", "bytes"},
	{"wal.replay_us_per_delta", "us"},
	{"wal.open_append_us", "us"},
	{"wal.bytes_per_write", "bytes"},
	{"snapshot.write_us", "us"},
	{"snapshot.read_us", "us"},
	{"snapshot.bytes", "bytes"},
	{"chase.encode_state_us", "us"},
	{"chase.restore_live_us", "us"},
	{"lru.get_ns", "ns"},
	{"lru.put_evict_ns", "ns"},
	{"server.handler_read_us", "us"},
	{"server.handler_explain_us", "us"},
	{"server.handler_write_us", "us"},
	{"server.restore_us", "us"},
	{"server.http_overhead_us", "us"},
	{"server.restores", "count"},
	{"server.restores_per_touch", "share"},
	{"server.snapshot_restores", "count"},
	{"server.snapshot_writes", "count"},
	{"server.compactions", "count"},
	{"server.session_hit_share", "share"},
	{"server.peak_rss_mb", "MiB"},
	{"router.hop_us", "us"},
	{"router.ring_lookup_ns", "ns"},
	{"router.location_hit_share", "share"},
	{"router.retried", "count"},
	{"router.failovers", "count"},
	{"router.peak_rss_mb", "MiB"},
	{"client.read_p99_ms", "ms"},
	{"client.explain_p99_ms", "ms"},
	{"client.write_p99_ms", "ms"},
	{"harness.late_p99_ms", "ms"},
	{"harness.open_loop_attempts", "count"},
	{"harness.trace_overhead_share", "share"},
	{"harness.fsync_probe_us", "us"},
	{"harness.reason_closure_share", "share"},
	{"harness.explain_closure_share", "share"},
	{"harness.error_share", "share"},
	{"harness.durability_lost_writes", "count"},
	{"harness.build_s", "s"},
}

// maxLateP99Ms is the validity gate on the open-loop generator: a phase
// whose generator released requests later than this at the 99th percentile
// did not offer the load it claims. It is not reported; the run measures the
// phase again, at most openLoopAttempts times in all, and fails (correct is
// false) if none was punctual.
const (
	maxLateP99Ms     = 2.0
	openLoopAttempts = 3
)
