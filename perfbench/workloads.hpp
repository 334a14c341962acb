// The benchmark's workloads and the canonical metric lists every run
// prints (BENCHMARK.json and METRICS.md name the same metrics).
#pragma once

#include <vector>

#include "bench_util.hpp"

namespace perfbench {

/// Printed by every `--trace 0` run, in this order.
inline const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"model.ns_per_pkt.p50", "ns"},
        {"model.ns_per_pkt.p99", "ns"},
        {"ffs.ns_per_pkt.p50", "ns"},
        {"ffs.ns_per_pkt.p99", "ns"},
        {"model.ns_per_op.p50", "ns"},
        {"model.ns_per_op.p99", "ns"},
        {"ffs.ns_per_op.p50", "ns"},
        {"ffs.ns_per_op.p99", "ns"},
        {"model.cycles_per_op", "cycles"},
        {"model.worst_op_cycles", "cycles"},
    };
    return defs;
}

/// Printed by every `--trace 1` run. A layer that a workload does not run
/// prints 0 (METRICS.md lists which workload measures which metric).
inline const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> defs = {
        {"net.self_ns_per_pkt", "ns"},
        {"net.drop_ratio", "ratio"},
        {"sched_prog.enqueue_ns.p50", "ns"},
        {"sched_prog.dequeue_ns.p50", "ns"},
        {"sched_prog.self_ns_per_pkt", "ns"},
        {"sched_prog.queue_calls_per_pkt", "count"},
        {"wfq.rank_ns", "ns"},
        {"scheduler.buffer_ns", "ns"},
        {"baselines.insert_ns.p50", "ns"},
        {"baselines.pop_ns.p50", "ns"},
        {"baselines.model.ns_per_op", "ns"},
        {"baselines.ffs.ns_per_op", "ns"},
        {"baselines.veb.ns_per_op", "ns"},
        {"baselines.accesses_per_op", "count"},
        {"core.sharded.model.n4_ns_per_op", "ns"},
        {"core.sharded.model.n1_ns_per_op", "ns"},
        {"core.sharded.ffs.n4_ns_per_op", "ns"},
        {"core.sharded.ffs.n1_ns_per_op", "ns"},
        {"core.unattributed_ns_per_op", "ns"},
        {"core.duplicate_ratio", "ratio"},
        {"core.wrap_fallback_per_insert", "ratio"},
        {"core.sector_invalidations", "count"},
        {"core.head_undercut_ratio", "ratio"},
        {"core.insert_cycles.p99", "cycles"},
        {"core.pop_cycles.p99", "cycles"},
        {"tree.search_and_insert_ns", "ns"},
        {"tree.erase_ns", "ns"},
        {"tree.contains_ns", "ns"},
        {"tree.node_lookups_per_op", "count"},
        {"tree.backup_descent_ratio", "ratio"},
        {"matcher.match_ns", "ns"},
        {"storage.table.lookup_ns", "ns"},
        {"storage.table.set_ns", "ns"},
        {"storage.table.hot_hit_rate", "ratio"},
        {"storage.table.bulk_misses_per_op", "count"},
        {"storage.store.insert_after_ns", "ns"},
        {"storage.store.pop_head_ns", "ns"},
        {"hw.sram.read_ns", "ns"},
        {"hw.sram.write_ns", "ns"},
        {"hw.sram.read_secded_ns", "ns"},
        {"hw.sram.reads_per_op", "count"},
        {"hw.sram.writes_per_op", "count"},
        {"obs.hist.record_ns", "ns"},
        {"trace.overhead_ratio", "ratio"},
        {"trace.closure_error", "ratio"},
        {"fail_ratio", "ratio"},
        {"ops_attempted", "count"},
        {"ops_failed", "count"},
    };
    return defs;
}

/// One measurement slice and the pause after it (see Slicer): a run of
/// --seconds of measurement spans about twice that in wall time.
inline constexpr double kSliceSeconds = 0.5;
inline constexpr double kSliceGapSeconds = 0.5;

/// Largest trace.closure_error a traced run accepts.
inline constexpr double kClosureTolerance = 1e-3;

void run_sim_wfq_10g(const Options& opt, Report& rep);
void run_sorter_paper12(const Options& opt, Report& rep);
void run_sorter_wide32(const Options& opt, Report& rep);

/// Median of `reps` setups, each timed by `setup_once` (which returns its
/// own duration in seconds and leaves its state for the run).
template <class F>
double median_setup_s(int reps, F&& setup_once) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) t.push_back(setup_once());
    return median(t);
}

}  // namespace perfbench
