// Experiment P1 — the §IV performance claim: "a throughput of over 35.8
// million packets per second is possible. Based on a conservative
// estimate for an average IP packet size of 140 bytes, the circuit can
// operate at line speeds of 40 Gb/s."
//
// The chain has two halves:
//   1. cycle-accurate: measure cycles per operation through the simulated
//      circuit (tree+translation stage and list stage both 4 cycles =
//      pipelined initiation interval 4);
//   2. analytic clock: the synthesis model's 130-nm clock estimate.
// Mpps = clock / II; Gb/s = Mpps * 140 B * 8. The bench also sweeps the
// average packet size to show where 40 Gb/s holds.
#include <chrono>
#include <cstdio>
#include <vector>

#include "analysis/throughput.hpp"
#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/synthesis_model.hpp"
#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "obs/bench_io.hpp"
#include "obs/profiler.hpp"
#include "sched_prog/pifo_scheduler.hpp"

using namespace wfqs;
using namespace wfqs::core;

namespace {

baselines::QueueParams driver_queue_params(baselines::SorterBackend backend) {
    baselines::QueueParams qp;
    qp.range_bits = 20;
    qp.capacity = 1 << 16;
    qp.backend = backend;
    return qp;
}

sched_prog::PifoScheduler make_wfq(std::uint64_t rate,
                                   baselines::SorterBackend backend) {
    sched_prog::PifoScheduler::Config cfg;
    cfg.rank.link_rate_bps = rate;
    cfg.rank.tag_granularity_bits = -6;
    return sched_prog::PifoScheduler(cfg, [backend] {
        return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                         driver_queue_params(backend));
    });
}

// --- host-throughput phase (both backends, every run) -------------------
//
// The same steady-state stream — batched inserts chasing the head, batched
// pops holding occupancy — through the TagQueue contract on each backend.
// The ratio is the machine-independent number (both halves run on the same
// box in the same process); perf_smoke gates host.ffs.speedup_vs_model so
// the committed artifact certifies the ffs backend's 10x claim without
// trusting anyone's absolute ops/s.
std::uint64_t run_host_throughput_phase(obs::BenchReporter& reporter) {
    constexpr std::size_t kBatch = 256;
    constexpr std::size_t kWarm = 8192;     // steady-state occupancy
    constexpr std::uint64_t kOps = 1 << 21; // insert+pop pairs count as 2
    const std::uint64_t seed = reporter.seed(7);
    auto& reg = reporter.registry();

    const auto run_backend = [&](baselines::SorterBackend backend) {
        auto queue = baselines::make_tag_queue(
            baselines::QueueKind::MultibitTree, driver_queue_params(backend));
        Rng rng(seed);
        baselines::QueueEntry buf[kBatch];
        std::uint64_t cursor = 0;
        const auto fill = [&](std::size_t n) {
            for (std::size_t i = 0; i < n; ++i) {
                cursor += rng.next_below(60);
                buf[i] = {cursor, static_cast<std::uint32_t>(i)};
            }
        };
        for (std::size_t warmed = 0; warmed < kWarm; warmed += kBatch) {
            fill(kBatch);
            queue->insert_batch(buf, kBatch);
        }
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t done = 0;
        while (done < kOps) {
            fill(kBatch);
            queue->insert_batch(buf, kBatch);
            const std::size_t got = queue->pop_batch(buf, kBatch);
            done += kBatch + got;
        }
        const double sec =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                .count();
        return sec > 0 ? static_cast<double>(done) / sec : 0.0;
    };

    const double model_ops = run_backend(baselines::SorterBackend::kModel);
    const double ffs_ops = run_backend(baselines::SorterBackend::kFfs);
    const double speedup = model_ops > 0 ? ffs_ops / model_ops : 0.0;
    std::printf("host sorter throughput (steady state, %zu-entry batches):\n",
                kBatch);
    std::printf("  model backend        : %.0f ops/s\n", model_ops);
    std::printf("  ffs backend          : %.0f ops/s (%.1fx)\n\n", ffs_ops,
                speedup);
    reg.gauge("host.model.ops_per_sec").set(model_ops);
    reg.gauge("host.ffs.ops_per_sec").set(ffs_ops);
    reg.gauge("host.ffs.speedup_vs_model").set(speedup);
    return 2 * kOps;  // both backends' op streams are host work
}

// --- driver phase ------------------------------------------------------
//
// Drives the mixed workload through the full WFQ + sorter stack on the
// SimDriver. The scheduler owns its own hw::Simulation, so the
// `hw.cycles` counter registered in main stays byte-exact for the
// perf-smoke gate. Returns the host ops the run performed.
std::uint64_t run_driver_phase(obs::BenchReporter& reporter,
                               obs::HostProfiler& prof,
                               baselines::SorterBackend backend) {
    constexpr std::uint64_t kRate = 50'000'000;
    constexpr net::TimeNs kHorizon = 5'000'000'000;  // 5 s of traffic

    auto sched = make_wfq(kRate, backend);
    auto flows = net::make_mixed_profile(kHorizon, reporter.seed(3));
    net::SimDriver driver(kRate);
    driver.attach_metrics(reporter.registry());
    // Telemetry rides only when asked for, so a plain run stays a true
    // telemetry-off baseline for the perf-smoke overhead gate.
    const bool telemetry =
        reporter.timeseries_enabled() || reporter.live_path().has_value();
    if (telemetry) {
        if (reporter.live_path()) prof.set_live_path(*reporter.live_path());
        driver.set_profiler(&prof);
        prof.start_sampling();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const net::SimResult r = driver.run(sched, flows);
    const double sec =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (telemetry) prof.stop_sampling();

    // One host "op" per scheduler engagement: enqueue + dequeue per
    // delivered packet, enqueue alone per drop.
    const std::uint64_t ops =
        2 * static_cast<std::uint64_t>(r.records.size()) + r.dropped_packets;
    std::printf("WFQ scheduler + SimDriver, %llu scheduler ops over %llu pkts:\n",
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(r.offered_packets));
    std::printf("  host throughput      : %.0f ops/s\n\n",
                sec > 0 ? static_cast<double>(ops) / sec : 0.0);
    if (telemetry) {
        std::printf("%s\n", prof.to_table().c_str());
        reporter.set_profiler(&prof);
    }
    return ops;
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("line_rate", argc, argv);
    const std::string backend_name = obs::bench_backend(argc, argv);
    const baselines::SorterBackend backend =
        *baselines::backend_from_name(backend_name);
    reporter.record_backend(backend_name);
    std::printf("== P1: line-rate claim (35.8 Mpps -> 40 Gb/s at 140 B) ==\n\n");

    // --- cycle-accurate half -------------------------------------------
    hw::Simulation sim;
    TagSorter sorter({tree::TreeGeometry::paper(), 4096, 24}, sim);
    sorter.register_metrics(reporter.registry());
    sim.register_metrics(reporter.registry());
    Rng rng(reporter.seed(1));

    // Steady-state combined insert+serve stream (the sustained line-rate
    // pattern: one tag in, one tag out per packet).
    sorter.insert(0, 0);
    const std::uint64_t c0 = sim.clock().now();
    constexpr int kOps = 100000;
    for (int i = 0; i < kOps; ++i)
        sorter.insert_and_pop(sorter.peek_min()->tag + rng.next_below(60), 0);
    const double cycles_per_op =
        static_cast<double>(sim.clock().now() - c0) / kOps;

    std::printf("cycle-accurate sorter, %d combined ops:\n", kOps);
    std::printf("  sequential cycles/op : %.2f (tree+translation stage then list stage)\n",
                cycles_per_op);
    std::printf("  pipelined II         : 4 cycles (stages overlap; both exactly 4)\n");
    std::printf("  worst-case op        : %llu cycles\n\n",
                static_cast<unsigned long long>(sorter.stats().worst_insert_cycles));

    // --- analytic clock half -------------------------------------------
    const SynthesisReport model =
        synthesize({tree::TreeGeometry::paper(), std::size_t{1} << 20, 24},
                   matcher::MatcherKind::SelectLookahead);
    std::printf("130-nm clock model: %.1f MHz\n", model.clock_mhz);

    TextTable table({"cycles/tag", "Mpps", "Gb/s @140B", "Gb/s @64B", "Gb/s @1500B"});
    for (const double cycles : {4.0, cycles_per_op}) {
        const double mpps = analysis::circuit_mpps(model.clock_mhz, cycles);
        table.add_row({TextTable::num(cycles, 2), TextTable::num(mpps, 1),
                       TextTable::num(analysis::line_rate_gbps(mpps, 140.0), 1),
                       TextTable::num(analysis::line_rate_gbps(mpps, 64.0), 1),
                       TextTable::num(analysis::line_rate_gbps(mpps, 1500.0), 1)});
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("paper: 35.8 Mpps and 40 Gb/s at the 4-cycle pipelined rate;\n");
    std::printf("the sequential (unpipelined) row is the conservative floor.\n\n");

    // --- scalability claims --------------------------------------------
    std::printf("scalability (§IV): tag storage in external SRAM bounds capacity,\n");
    std::printf("not the sorter: a 2^25-entry list stores ~30M packets; sessions are\n");
    std::printf("bounded by the tag computation state, scalable to 8M (ref [8]).\n");
    std::printf("Here: list capacity is a constructor parameter (tested to 2^20),\n");
    std::printf("tree+translation cost is independent of it (Table I: O(W/k)).\n");

    auto& reg = reporter.registry();
    reg.gauge("line_rate.cycles_per_op_sequential").set(cycles_per_op);
    reg.gauge("line_rate.cycles_per_op_pipelined").set(4.0);
    reg.gauge("line_rate.clock_mhz").set(model.clock_mhz);
    const double mpps = analysis::circuit_mpps(model.clock_mhz, 4.0);
    reg.gauge("line_rate.mpps_pipelined").set(mpps);
    reg.gauge("line_rate.gbps_at_140B").set(analysis::line_rate_gbps(mpps, 140.0));

    // --- host throughput phase (both backends) -------------------------
    std::printf("\n");
    const std::uint64_t throughput_ops = run_host_throughput_phase(reporter);

    // --- driver phase --------------------------------------------------
    // Outlives reporter.finish(): the reporter exports its per-stage
    // timeline under "host_profile" when --timeseries is on.
    obs::HostProfiler prof;
    const std::uint64_t driver_ops = run_driver_phase(reporter, prof, backend);

    reporter.record_host_ops(kOps + throughput_ops + driver_ops);
    reporter.finish();
    return 0;
}
