// Experiment P3 — programmable scheduling: exact PIFO vs approximations.
//
// Every row schedules the identical overloaded 4-flow mix (weights
// 1:2:4:8, offered ~1.3x a 1 Gb/s link, 40 ms) and is scored by an
// independent RankInversionMeter running the same rank policy:
//
//   * PifoScheduler rows — all five rank policies on the paper's
//     multi-bit tree sorter, once per sorter backend (cycle-accurate
//     model and host-native FFS). An exact PIFO never serves a packet
//     outranked by an eligible queued one: inversions must be zero, and
//     perf_smoke.py gates on exactly that.
//   * SP-PIFO rows (8 and 2 strict-priority queues) — adaptive-bound
//     approximation; inversions appear whenever a queue holds packets a
//     later arrival undercuts.
//   * RIFO row — a single FIFO with rank-range admission; ordering error
//     shows up both as inversions and as rank-based drops.
//
// Reported per row: serve count, inversion count/rate, rank drops, Jain
// fairness over weight-normalised service, and p99 sojourn delay. The
// committed BENCH_policy.json pins the shape: zero inversions on the
// exact rows, non-zero on the approximations.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <random>
#include <unordered_map>
#include <vector>

#include "analysis/fairness.hpp"
#include "baselines/factory.hpp"
#include "common/table.hpp"
#include "net/packet.hpp"
#include "obs/bench_io.hpp"
#include "ref/ref_rank_oracle.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "sched_prog/rifo.hpp"
#include "sched_prog/sp_pifo.hpp"

using namespace wfqs;

namespace {

constexpr std::uint64_t kRate = 1'000'000'000;  ///< link, bits/s
constexpr net::TimeNs kDurationNs = 40'000'000;  ///< 40 ms offered window
constexpr double kLoad = 1.3;  ///< offered/link ratio: every flow backlogged
constexpr std::uint32_t kWeights[] = {1, 2, 4, 8};
constexpr std::size_t kFlows = 4;

struct Arrival {
    net::TimeNs t;
    net::FlowId flow;
    std::uint32_t size_bytes;
};

// Per-flow renewal arrivals at kLoad * weight-share of the link, sizes
// uniform 64..1500 B. Integer-seeded mt19937_64 only — the schedule is
// identical for every row and reproducible from the exported seed.
std::vector<Arrival> make_arrivals(std::uint64_t seed) {
    std::uint32_t weight_sum = 0;
    for (auto w : kWeights) weight_sum += w;
    std::vector<Arrival> arrivals;
    for (net::FlowId f = 0; f < kFlows; ++f) {
        std::mt19937_64 rng(seed + f);
        const double rate_bps = kLoad * kRate * kWeights[f] / weight_sum;
        double t = 0.0;
        while (true) {
            const std::uint32_t size = 64 + rng() % 1437;
            // Inter-arrival = serialization time at the flow's offered
            // rate, jittered uniformly over [0.5, 1.5) of the mean.
            const double jitter = 0.5 + (rng() % 1000) / 1000.0;
            t += size * 8.0 * 1e9 / rate_bps * jitter;
            if (t >= kDurationNs) break;
            arrivals.push_back({static_cast<net::TimeNs>(t), f, size});
        }
    }
    std::stable_sort(arrivals.begin(), arrivals.end(),
                     [](const Arrival& a, const Arrival& b) { return a.t < b.t; });
    return arrivals;
}

struct Row {
    std::string name;
    std::string policy;
    std::uint64_t served = 0;
    std::uint64_t inversions = 0;
    double inversion_rate = 0.0;
    std::uint64_t rank_drops = 0;
    double jain = 0.0;
    double p99_delay_us = 0.0;
    bool exact = false;
};

// Drive one scheduler over the shared arrival schedule on a simulated
// 1 Gb/s link (serve whenever the link is free and the queue backlogged;
// stop at the end of the offered window, leftover backlog unserved so
// every row is scored over the same interval).
Row run_row(const std::string& name, scheduler::Scheduler& sched,
            sched_prog::RankPolicy policy, const sched_prog::RankConfig& rank,
            const std::vector<Arrival>& arrivals, bool exact) {
    ref::RankInversionMeter meter(policy, rank);
    for (auto w : kWeights) {
        const net::FlowId a = sched.add_flow(w);
        const net::FlowId b = meter.add_flow(w);
        (void)a;
        (void)b;
    }

    std::unordered_map<std::uint64_t, net::TimeNs> admitted_at;
    std::vector<double> delays_us;
    std::vector<double> service(kFlows, 0.0);
    constexpr net::TimeNs kInf = ~net::TimeNs{0};

    std::uint64_t next_id = 1;
    std::size_t ai = 0;
    net::TimeNs now = 0, link_free = 0;
    while (true) {
        const net::TimeNs next_arr = ai < arrivals.size() ? arrivals[ai].t : kInf;
        const net::TimeNs next_serve =
            sched.has_packets() ? std::max(link_free, now) : kInf;
        if (next_arr == kInf && next_serve == kInf) break;
        if (next_serve <= next_arr) {
            now = next_serve;
            if (now >= kDurationNs) break;
            const auto pkt = sched.dequeue(now);
            if (!pkt) break;  // defensive: has_packets promised one
            meter.on_serve(*pkt, now);
            service[pkt->flow] += pkt->size_bytes;
            delays_us.push_back((now - admitted_at.at(pkt->id)) / 1e3);
            admitted_at.erase(pkt->id);
            link_free = now + net::transmission_ns(pkt->size_bytes, kRate);
        } else {
            const Arrival& a = arrivals[ai++];
            now = a.t;
            net::Packet pkt{next_id++, a.flow, a.size_bytes, a.t};
            const bool ok = sched.enqueue(pkt, now);
            meter.on_offer(pkt, now, ok);
            if (ok) admitted_at.emplace(pkt.id, now);
        }
    }

    Row row;
    row.name = name;
    row.policy = sched_prog::rank_policy_name(policy);
    row.served = meter.serves();
    row.inversions = meter.inversions();
    row.inversion_rate = meter.inversion_rate();
    row.exact = exact;
    std::vector<double> normalized;
    for (std::size_t f = 0; f < kFlows; ++f)
        normalized.push_back(service[f] / kWeights[f]);
    row.jain = analysis::jain_fairness_index(normalized);
    if (!delays_us.empty()) {
        std::sort(delays_us.begin(), delays_us.end());
        const std::size_t idx = static_cast<std::size_t>(
            std::ceil(0.99 * delays_us.size())) - 1;
        row.p99_delay_us = delays_us[idx];
    }
    return row;
}

sched_prog::QueueFactory sorter_factory(baselines::SorterBackend backend) {
    return [backend] {
        return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                         {20, 1 << 16, 1, backend});
    };
}

}  // namespace

int main(int argc, char** argv) {
    obs::BenchReporter reporter("policy_comparison", argc, argv);
    const std::uint64_t seed = reporter.seed(0x51F0);
    const auto arrivals = make_arrivals(seed);
    // Every row sweeps its own backend; the document-level field records
    // that this artifact is the cross-backend sweep, not a single run.
    reporter.record_backend("sweep");

    std::printf("== P3: policy comparison — exact PIFO vs SP-PIFO vs RIFO ==\n");
    std::printf("4 flows (weights 1:2:4:8), offered %.1fx a %.0f Mb/s link, %.0f ms,\n",
                kLoad, kRate / 1e6, kDurationNs / 1e6);
    std::printf("%zu offered packets; inversions judged by an independent rank oracle.\n\n",
                arrivals.size());

    TextTable table({"row", "policy", "served", "inversions", "inv rate",
                     "rank drops", "Jain idx", "p99 delay (us)"});
    auto& reg = reporter.registry();
    auto add = [&](const Row& r) {
        table.add_row({r.name, r.policy, TextTable::num(double(r.served), 0),
                       TextTable::num(double(r.inversions), 0),
                       TextTable::num(r.inversion_rate, 4),
                       TextTable::num(double(r.rank_drops), 0),
                       TextTable::num(r.jain, 3), TextTable::num(r.p99_delay_us, 0)});
        const std::string base = "policy." + r.name + ".";
        reg.gauge(base + "inversions").set(double(r.inversions));
        reg.gauge(base + "inversion_rate").set(r.inversion_rate);
        reg.gauge(base + "served_packets").set(double(r.served));
        reg.gauge(base + "rank_drops").set(double(r.rank_drops));
        reg.gauge(base + "jain_index").set(r.jain);
        reg.gauge(base + "p99_delay_us").set(r.p99_delay_us);
        reg.gauge(base + "exact").set(r.exact ? 1.0 : 0.0);
    };

    const sched_prog::RankConfig rank;  // 1 Gb/s, granularity -6: defaults
    // Exact PIFO: every policy on the paper's sorter, both backends.
    for (auto backend : baselines::all_sorter_backends()) {
        for (auto policy : sched_prog::all_rank_policies()) {
            sched_prog::PifoScheduler::Config cfg;
            cfg.policy = policy;
            cfg.rank = rank;
            sched_prog::PifoScheduler pifo(cfg, sorter_factory(backend));
            const std::string name = "pifo-" + sched_prog::rank_policy_name(policy) +
                                     "-" + baselines::backend_name(backend);
            add(run_row(name, pifo, policy, rank, arrivals, true));
        }
    }
    // SP-PIFO at two queue budgets.
    for (unsigned queues : {8u, 2u}) {
        sched_prog::SpPifoScheduler::Config cfg;
        cfg.policy = sched_prog::RankPolicy::kWfq;
        cfg.rank = rank;
        cfg.num_queues = queues;
        sched_prog::SpPifoScheduler sp(cfg);
        Row r = run_row("sp_pifo-wfq-q" + std::to_string(queues), sp,
                        cfg.policy, rank, arrivals, false);
        add(r);
        const std::string base = "policy." + r.name + ".";
        reg.gauge(base + "push_ups").set(double(sp.push_ups()));
        reg.gauge(base + "push_downs").set(double(sp.push_downs()));
    }
    // RIFO: FIFO service, rank-aware admission.
    {
        sched_prog::RifoScheduler::Config cfg;
        cfg.policy = sched_prog::RankPolicy::kWfq;
        cfg.rank = rank;
        cfg.fifo_capacity = 256;
        sched_prog::RifoScheduler rifo(cfg);
        Row r = run_row("rifo-wfq-c256", rifo, cfg.policy, rank, arrivals, false);
        r.rank_drops = rifo.rank_drops();
        add(r);
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("expected shape: the exact PIFO rows report zero inversions for every\n");
    std::printf("policy and backend; the SP-PIFO and RIFO approximations invert (RIFO\n");
    std::printf("also sheds by rank). perf_smoke.py --policy gates on this.\n");
    reporter.finish();
    return 0;
}
