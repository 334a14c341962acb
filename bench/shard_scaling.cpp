// Experiment S1 — multi-bank scaling (§IV's replication argument made
// quantitative): N interleaved sorter banks with overlapped pipelines
// approach one operation per cycle, so aggregate Mpps grows ~N-fold
// until it saturates at the clock rate (N >= the 4-cycle initiation
// interval).
//
// Three views per bank count N in {1, 2, 4, 8, 16}:
//   1. modeled   — the cycle-accurate bank arbiter's makespan over a
//      saturating stream of separate insert and pop ops (each op engages
//      one bank, the sustained line-rate pattern when arrivals and
//      departures come from independent ports);
//   2. host      — wall-clock ops/sec of the same run (the host
//      fast-path's number; machine-dependent, excluded from trajectory
//      comparisons);
//   3. synthesis — the Table II model extended with N banks and the
//      (N-1)-comparator head-merge tree.
//
// The bench also end-to-end-checks the wiring: the N=1 sharded run must
// be *bit- and cycle-identical* to a bare TagSorter over the same stream
// (the process exits non-zero on any divergence — CI leans on this), and
// a sharded queue is driven through the full WFQ scheduler + SimDriver
// stack via the QueueParams::num_banks knob.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/throughput.hpp"
#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/sharded_sorter.hpp"
#include "core/synthesis_model.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "obs/bench_io.hpp"
#include "sched_prog/pifo_scheduler.hpp"

using namespace wfqs;
using namespace wfqs::core;

namespace {

constexpr int kPrefill = 512;
constexpr int kPairs = 100000;  // insert+pop pairs after prefill
constexpr std::size_t kTotalCapacity = 4096;

ShardedSorter::Config sharded_config(unsigned banks) {
    ShardedSorter::Config cfg;
    cfg.bank.capacity = kTotalCapacity / banks;
    cfg.num_banks = banks;
    return cfg;
}

/// The saturating workload: prefill, then alternating insert / pop ops
/// (separate single-bank engagements — the sustained pattern where the
/// input and output ports run independently). Identical tag stream for
/// every bank count: the generator never looks at the structure.
template <typename Sorter>
void drive(Sorter& s, std::uint64_t seed) {
    Rng rng(seed);
    std::uint64_t tag = 0;
    // Batched prefill: one dispatch for the whole warm-up backlog. The
    // batch entry points preserve per-op cycle accounting exactly, so
    // the modeled gauges below are unchanged from the scalar loop.
    std::vector<core::SortedTag> prefill;
    prefill.reserve(kPrefill);
    for (int i = 0; i < kPrefill; ++i)
        prefill.push_back({tag += rng.next_below(6), 0});
    s.insert_batch(prefill.data(), prefill.size());
    for (int i = 0; i < kPairs; ++i) {
        tag += rng.next_below(6);
        s.insert(tag, 0);
        s.pop_min();
    }
}

/// N=1 equivalence gate: same stream through a bare TagSorter and a
/// 1-bank ShardedSorter in separate simulations; every pop, the final
/// clock, and the SRAM inventory tallies must match exactly.
bool check_n1_identity(std::uint64_t seed) {
    hw::Simulation plain_sim, sharded_sim;
    TagSorter plain(sharded_config(1).bank, plain_sim);
    ShardedSorter one(sharded_config(1), sharded_sim);

    Rng rng_a(seed), rng_b(seed);
    std::uint64_t tag_a = 0, tag_b = 0;
    bool ok = true;
    const auto step = [&](bool do_pop) {
        if (!do_pop) {
            plain.insert(tag_a += rng_a.next_below(6), 0);
            one.insert(tag_b += rng_b.next_below(6), 0);
            return;
        }
        tag_a += rng_a.next_below(6);
        tag_b += rng_b.next_below(6);
        plain.insert(tag_a, 0);
        one.insert(tag_b, 0);
        const auto a = plain.pop_min();
        const auto b = one.pop_min();
        if (!a || !b || !(*a == *b)) ok = false;
    };
    for (int i = 0; i < kPrefill; ++i) step(false);
    for (int i = 0; i < 20000 && ok; ++i) step(true);

    if (plain_sim.clock().now() != sharded_sim.clock().now()) ok = false;
    if (plain_sim.memories().size() != sharded_sim.memories().size()) ok = false;
    if (ok) {
        for (std::size_t i = 0; i < plain_sim.memories().size(); ++i) {
            const hw::Sram& a = *plain_sim.memories()[i];
            const hw::Sram& b = *sharded_sim.memories()[i];
            if (a.name() != b.name() || a.stats().reads != b.stats().reads ||
                a.stats().writes != b.stats().writes ||
                a.stats().flash_clears != b.stats().flash_clears)
                ok = false;
        }
    }
    return ok;
}

/// End-to-end wiring: a 4-bank sorter behind the full WFQ scheduler and
/// SimDriver, switched on by the factory's num_banks knob alone. Returns
/// the delivered packet count.
std::uint64_t run_scheduler_demo(baselines::SorterBackend backend,
                                 obs::MetricsRegistry& reg) {
    baselines::QueueParams params;
    params.num_banks = 4;
    params.backend = backend;
    sched_prog::PifoScheduler::Config cfg;
    cfg.rank.link_rate_bps = 20'000'000;
    cfg.rank.tag_granularity_bits = -4;
    sched_prog::PifoScheduler sched(cfg, [&] {
        return baselines::make_tag_queue(baselines::QueueKind::MultibitTree, params);
    });
    std::vector<net::FlowSpec> flows;
    for (std::uint64_t f = 0; f < 8; ++f)
        flows.push_back({std::make_unique<net::CbrSource>(
                             2'000'000, 500, net::TimeNs{f * 1000},
                             net::TimeNs{200'000'000}),
                         static_cast<std::uint32_t>(1 + f % 4)});
    net::SimDriver driver(20'000'000);
    driver.attach_metrics(reg);
    return driver.run(sched, flows).records.size();
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("shard_scaling", argc, argv);
    const std::string backend_name = obs::bench_backend(argc, argv);
    const auto backend = *baselines::backend_from_name(backend_name);
    reporter.record_backend(backend_name);
    auto& reg = reporter.registry();
    std::printf("== S1: sharded multi-bank scaling (overlapped pipelines) ==\n\n");

    // Clock estimate shared by every row (the banks replicate the same
    // circuit; the merge tree is registered and off the critical path).
    const SynthesisReport base_model = synthesize_sharded(
        sharded_config(1), matcher::MatcherKind::SelectLookahead);

    TextTable table({"banks", "modeled cyc/op", "overlap", "modeled Mpps",
                     "speedup", "host ops/s"});
    std::vector<SynthesisReport> synth_rows;
    double n1_cycles_per_op = 0.0;
    std::uint64_t host_ops_total = 0;

    for (const unsigned n : {1u, 2u, 4u, 8u, 16u}) {
        hw::Simulation sim;
        ShardedSorter sorter(sharded_config(n), sim);
        const auto t0 = std::chrono::steady_clock::now();
        drive(sorter, reporter.seed(1));
        const double host_sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        const std::uint64_t ops = kPrefill + 2ull * kPairs;
        host_ops_total += ops;

        const double cyc_per_op = sorter.modeled_cycles_per_op();
        if (n == 1) n1_cycles_per_op = cyc_per_op;
        const double mpps = analysis::circuit_mpps(base_model.clock_mhz, cyc_per_op);
        const double host_ops_sec =
            host_sec > 0.0 ? static_cast<double>(ops) / host_sec : 0.0;
        table.add_row({TextTable::num(static_cast<std::int64_t>(n)),
                       TextTable::num(cyc_per_op, 3),
                       TextTable::num(sorter.overlap_factor(), 2),
                       TextTable::num(mpps, 1),
                       TextTable::num(n1_cycles_per_op / cyc_per_op, 2),
                       TextTable::num(host_ops_sec, 0)});
        synth_rows.push_back(synthesize_sharded(
            sharded_config(n), matcher::MatcherKind::SelectLookahead));

        const std::string base = "shard_scaling.n" + std::to_string(n) + ".";
        reg.gauge(base + "modeled_cycles_per_op").set(cyc_per_op);
        reg.gauge(base + "modeled_mpps").set(mpps);
        reg.gauge(base + "overlap_factor").set(sorter.overlap_factor());
        reg.gauge(base + "speedup_vs_n1").set(n1_cycles_per_op / cyc_per_op);
        reg.gauge(base + "bank_wait_cycles")
            .set(static_cast<double>(sorter.stats().bank_wait_cycles));
        reg.gauge(base + "host_ops_per_sec").set(host_ops_sec);
    }
    std::printf("%d prefill + %d insert/pop pairs per row, II = 4 cycles:\n%s\n",
                kPrefill, kPairs, table.render().c_str());
    std::printf("modeled rate approaches 1 op/cycle (= %.1f Mpps at the %.1f MHz\n"
                "clock) once N reaches the 4-cycle initiation interval.\n\n",
                base_model.clock_mhz, base_model.clock_mhz);

    // --- synthesis scaling (Table II extended) --------------------------
    std::printf("130-nm synthesis model per bank count:\n%s\n",
                format_shard_scaling_table(synth_rows).c_str());

    // --- N=1 identity gate ----------------------------------------------
    const bool identical = check_n1_identity(reporter.seed(2));
    reg.gauge("shard_scaling.n1_identical_to_single").set(identical ? 1.0 : 0.0);
    std::printf("N=1 vs bare TagSorter (results, clock, SRAM tallies): %s\n",
                identical ? "IDENTICAL" : "DIVERGED");

    // --- full-stack wiring demo -----------------------------------------
    const std::uint64_t delivered = run_scheduler_demo(backend, reg);
    reg.gauge("shard_scaling.scheduler_demo_packets")
        .set(static_cast<double>(delivered));
    std::printf("WFQ scheduler + SimDriver over a 4-bank sorter [%s]: %llu "
                "packets delivered\n",
                backend_name.c_str(), static_cast<unsigned long long>(delivered));

    reporter.record_host_ops(host_ops_total);
    reporter.finish();
    if (!identical) {
        std::fprintf(stderr, "FAIL: N=1 sharded run diverged from the bare sorter\n");
        return 1;
    }
    return 0;
}
