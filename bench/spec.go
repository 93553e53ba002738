package main

// The benchmark's vocabulary: workloads, end-to-end metrics, per-layer
// metrics. BENCHMARK.json at the repo root restates these tables for the
// driver; TestBenchmarkJSONMatchesSpec keeps the two in step.

const (
	wCold    = "restart-cold"
	wDPT     = "restart-dpt"
	wForward = "forward-exec"
	wInstant = "instant-restart"
	wSharded = "sharded-restart"
)

type workloadSpec struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	run func(*env) error
}

var workloads = []workloadSpec{
	{wCold, "bulk offline restart of a 100k-record hot-page log: core, partition and dense do the work; wal and cache only hand over the survivors", runRestartCold},
	{wDPT, "same kernel under physiological+dpt with checkpoints: the section 4.3 analysis phase dominates, quadratic today", runRestartDPT},
	{wForward, "normal operation, 200k ops with flushes, forces and checkpoint+truncate, then a tail-losing crash: the log is written, not read", runForwardExec},
	{wInstant, "serve gate over the restart-cold log with two closed-loop clients: separates the decision phase (TTFR) from replay speed (drained)", runInstantRestart},
	{wSharded, "4-shard certified-cut recovery after staggered shard failures: StableTxns, ComputeCut, per-shard prefix recovery and the checker audit", runShardedRestart},
}

func workloadByName(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricSpec describes one metric.
//
// Every workload reports every end-to-end metric, measured on its own
// crashed system at its own scale (the driver compares each pairing of
// metric and workload with the parent commit). Focus names the workloads
// whose timed path the metric was designed for; performance claims are
// stated as one end-to-end metric on one focus workload.
//
// A per-layer metric is measured by its Focus workloads only; the
// others report 0: their run never calls that layer.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which the metric may
	// worsen before a change counts as a regression. The three demoted
	// end-to-end metrics (see perLayer) keep theirs for -repeat.
	Bound float64
	// Exact marks a count that repeats exactly for one seed. The two
	// allocation metrics are not: pooled scratch and the runtime's own
	// allocations move them by a tenth of a percent.
	Exact bool
	Focus []string
	// Moves names, for a layer metric, the end-to-end metric it should
	// move ("-" when it only explains).
	Moves string
}

var allWorkloads = []string{wCold, wDPT, wForward, wInstant, wSharded}

var endToEnd = []metricSpec{
	{Name: "recover_seq_records_per_s", Unit: "records/s", Better: "higher", Bound: 0.25, Focus: []string{wCold, wDPT, wSharded}},
	{Name: "recover_par_records_per_s", Unit: "records/s", Better: "higher", Bound: 0.25, Focus: []string{wCold}},
	{Name: "recover_log_mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.25, Focus: []string{wCold}},
	{Name: "recover_alloc_bytes_per_record", Unit: "B", Better: "lower", Bound: 0.05, Focus: []string{wCold, wDPT}},
	{Name: "exec_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Focus: []string{wForward}},
	{Name: "log_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05, Exact: true, Focus: []string{wForward}},
	{Name: "ttfr_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Focus: []string{wInstant}},
	{Name: "ttfr_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25, Focus: []string{wInstant}},
	{Name: "drained_ms", Unit: "ms", Better: "lower", Bound: 0.25, Focus: []string{wInstant}},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Focus: allWorkloads},
}

var perLayer = []metricSpec{
	{Name: "wal.append_ns_per_record", Unit: "ns", Better: "lower", Focus: []string{wForward}, Moves: "exec_ops_per_s"},
	{Name: "wal.flushlog_ns_per_call", Unit: "ns", Better: "lower", Focus: []string{wForward}, Moves: "exec_ops_per_s"},
	{Name: "wal.forces", Unit: "count", Better: "lower", Exact: true, Focus: []string{wForward}, Moves: "exec_ops_per_s"},
	{Name: "wal.stable_log_us", Unit: "us", Better: "lower", Focus: []string{wCold}, Moves: "recover_seq_records_per_s, ttfr_p50_ms"},
	{Name: "cache.flushone_us_per_call", Unit: "us", Better: "lower", Focus: []string{wForward}, Moves: "exec_ops_per_s, setup_s"},
	{Name: "cache.page_flushes", Unit: "count", Better: "lower", Exact: true, Focus: []string{wForward}, Moves: "exec_ops_per_s"},
	{Name: "storage.stable_state_us", Unit: "us", Better: "lower", Focus: []string{wCold}, Moves: "recover_seq_records_per_s, ttfr_p50_ms"},
	{Name: "method.exec_ns_per_op", Unit: "ns", Better: "lower", Focus: []string{wForward}, Moves: "exec_ops_per_s"},
	{Name: "method.checkpoint_us_per_call", Unit: "us", Better: "lower", Focus: []string{wForward}, Moves: "exec_ops_per_s"},
	{Name: "method.redo_selectivity", Unit: "fraction", Better: "lower", Exact: true, Focus: []string{wCold, wDPT}, Moves: "-"},
	{Name: "method.parallel_speedup", Unit: "ratio", Better: "higher", Focus: []string{wCold}, Moves: "recover_par_records_per_s"},
	{Name: "core.view_build_ns_per_record", Unit: "ns", Better: "lower", Focus: []string{wCold, wDPT}, Moves: "recover_seq_records_per_s, ttfr_p50_ms"},
	{Name: "core.decide_ns_per_record", Unit: "ns", Better: "lower", Focus: []string{wCold, wDPT}, Moves: "recover_seq_records_per_s, ttfr_p50_ms"},
	{Name: "core.replay_ns_per_record", Unit: "ns", Better: "lower", Focus: []string{wCold}, Moves: "recover_seq_records_per_s, drained_ms"},
	{Name: "core.recover_allocs_per_record", Unit: "count", Better: "lower", Focus: []string{wCold}, Moves: "recover_alloc_bytes_per_record"},
	{Name: "core.warm_over_cold_ratio", Unit: "ratio", Better: "lower", Focus: []string{wCold}, Moves: "-"},
	{Name: "core.dpt_over_plain_ratio", Unit: "ratio", Better: "lower", Focus: []string{wDPT}, Moves: "recover_seq_records_per_s"},
	{Name: "core.checker_build_us_per_record", Unit: "us", Better: "lower", Focus: []string{wSharded}, Moves: "sharded_audit_records_per_s"},
	{Name: "core.checker_check_us_per_record", Unit: "us", Better: "lower", Focus: []string{wSharded}, Moves: "sharded_audit_records_per_s"},
	{Name: "partition.plan_ns_per_record", Unit: "ns", Better: "lower", Focus: []string{wCold}, Moves: "recover_par_records_per_s, ttfr_p50_ms"},
	{Name: "partition.components", Unit: "count", Better: "higher", Exact: true, Focus: []string{wCold}, Moves: "recover_par_records_per_s"},
	{Name: "partition.largest_component", Unit: "count", Better: "lower", Exact: true, Focus: []string{wCold}, Moves: "recover_par_records_per_s"},
	{Name: "partition.index_build_us", Unit: "us", Better: "lower", Focus: []string{wCold}, Moves: "ttfr_p50_ms"},
	{Name: "dense.from_state_us", Unit: "us", Better: "lower", Focus: []string{wCold}, Moves: "recover_seq_records_per_s, ttfr_p50_ms"},
	{Name: "serve.new_ms", Unit: "ms", Better: "lower", Focus: []string{wInstant}, Moves: "ttfr_p50_ms"},
	{Name: "serve.read_hit_ns", Unit: "ns", Better: "lower", Focus: []string{wInstant}, Moves: "serve_ops_per_s"},
	{Name: "serve.exec_us", Unit: "us", Better: "lower", Focus: []string{wInstant}, Moves: "serve_ops_per_s"},
	{Name: "serve.read_miss_us", Unit: "us", Better: "lower", Focus: []string{wInstant}, Moves: "ttfr_p90_ms"},
	{Name: "serve.drain_ns_per_record", Unit: "ns", Better: "lower", Focus: []string{wInstant}, Moves: "drained_ms"},
	{Name: "serve.read_p99_us", Unit: "us", Better: "lower", Focus: []string{wInstant}, Moves: "-"},
	{Name: "serve.write_p99_us", Unit: "us", Better: "lower", Focus: []string{wInstant}, Moves: "-"},
	{Name: "serve.lazy_components", Unit: "count", Better: "higher", Focus: []string{wInstant}, Moves: "-"},
	{Name: "serve.swept_components", Unit: "count", Better: "lower", Focus: []string{wInstant}, Moves: "-"},
	{Name: "serve.ttfr_over_offline", Unit: "ratio", Better: "lower", Focus: []string{wInstant}, Moves: "-"},
	{Name: "shard.exec_us_per_op", Unit: "us", Better: "lower", Focus: []string{wSharded}, Moves: "setup_s"},
	{Name: "shard.certify_us_per_call", Unit: "us", Better: "lower", Focus: []string{wSharded}, Moves: "setup_s"},
	{Name: "shard.stable_txns_us", Unit: "us", Better: "lower", Focus: []string{wSharded}, Moves: "sharded_recover_records_per_s"},
	{Name: "shard.compute_cut_us", Unit: "us", Better: "lower", Focus: []string{wSharded}, Moves: "sharded_recover_records_per_s"},
	{Name: "shard.cut_records", Unit: "count", Better: "higher", Exact: true, Focus: []string{wSharded}, Moves: "-"},
	{Name: "shard.dropped_records", Unit: "count", Better: "lower", Exact: true, Focus: []string{wSharded}, Moves: "-"},
	{Name: "shard.parallel_over_seq_ratio", Unit: "ratio", Better: "lower", Focus: []string{wSharded}, Moves: "-"},
	{Name: "obs.metrics_overhead_ratio", Unit: "ratio", Better: "lower", Focus: []string{wCold}, Moves: "-"},
	{Name: "obs.trace_overhead_ratio", Unit: "ratio", Better: "lower", Focus: []string{wCold}, Moves: "-"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Focus: allWorkloads, Moves: "-"},
	// Demoted from the end-to-end table before merge: no other workload
	// has a serving engine or an audit to ask the same question of, and
	// the driver reads every end-to-end metric from every workload.
	// sharded_recover_records_per_s is recover_seq_records_per_s on
	// sharded-restart under the issue's name.
	{Name: "serve_ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.25, Focus: []string{wInstant}, Moves: "-"},
	{Name: "sharded_recover_records_per_s", Unit: "records/s", Better: "higher", Bound: 0.25, Focus: []string{wSharded}, Moves: "-"},
	{Name: "sharded_audit_records_per_s", Unit: "records/s", Better: "higher", Bound: 0.25, Focus: []string{wSharded}, Moves: "-"},
	{Name: "failed_share", Unit: "fraction", Better: "lower", Exact: true, Focus: allWorkloads, Moves: "-"},
}

// metricsFor returns the table for a run kind: per-layer when traced,
// end-to-end otherwise.
func metricsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

func (m *metricSpec) focusOn(workload string) bool {
	for _, o := range m.Focus {
		if o == workload {
			return true
		}
	}
	return false
}
