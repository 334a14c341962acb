// A QoS-enabled output port (the paper's Fig. 1 scheduler, end to end):
// WFQ tag computation -> shared packet buffer -> tag sort/retrieve
// circuit, fed by a realistic traffic mix and compared against plain
// FIFO on the same arrivals.
//
//   ./build/examples/qos_router
//
// This is the paper's motivating scenario (§I-A): a premium video flow
// and voice flows share a congested link with bursty best-effort data;
// fair queueing keeps the premium flows at their guaranteed shares and
// bounded delays while FIFO lets the bursts starve everyone.
#include <cstdio>

#include "analysis/delay_stats.hpp"
#include "analysis/fairness.hpp"
#include "baselines/factory.hpp"
#include "common/table.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "scheduler/fifo.hpp"

using namespace wfqs;

namespace {

constexpr net::TimeNs kSecond = 1'000'000'000;
constexpr std::uint64_t kLinkRate = 20'000'000;  // 20 Mb/s output port

std::vector<net::FlowSpec> make_traffic() {
    std::vector<net::FlowSpec> flows;
    // Premium: one SD video stream and two voice calls.
    flows.push_back(
        {std::make_unique<net::VideoSource>(30.0, 15000, 1500, 2 * kSecond, 1), 24});
    flows.push_back({std::make_unique<net::VoipSource>(2 * kSecond, 2), 8});
    flows.push_back({std::make_unique<net::VoipSource>(2 * kSecond, 3), 8});
    // Best-effort: four aggressive bursty downloads.
    for (int i = 0; i < 4; ++i)
        flows.push_back({std::make_unique<net::OnOffParetoSource>(
                             15'000'000, 1500, 0.2, 0.2, 1.5, 2 * kSecond, 10 + i),
                         1});
    return flows;
}

const char* flow_label(std::size_t f) {
    static const char* names[] = {"video (w=24)", "voip-1 (w=8)", "voip-2 (w=8)",
                                  "bulk-1 (w=1)", "bulk-2 (w=1)", "bulk-3 (w=1)",
                                  "bulk-4 (w=1)"};
    return names[f];
}

void report(const char* title, const net::SimResult& result, std::size_t flow_count) {
    const auto reports = analysis::per_flow_delays(result.records, flow_count);
    TextTable table({"flow", "packets", "Mb/s", "mean delay (ms)", "p99 (ms)",
                     "max (ms)"});
    for (const auto& r : reports) {
        table.add_row({flow_label(r.flow), TextTable::num(r.packets),
                       TextTable::num(r.throughput_bps / 1e6, 2),
                       TextTable::num(r.mean_delay_us / 1e3, 2),
                       TextTable::num(r.p99_delay_us / 1e3, 2),
                       TextTable::num(r.max_delay_us / 1e3, 2)});
    }
    std::printf("-- %s --\n%s", title, table.render().c_str());
    std::printf("offered %llu, served %zu, dropped %llu\n\n",
                static_cast<unsigned long long>(result.offered_packets),
                result.records.size(),
                static_cast<unsigned long long>(result.dropped_packets));
}

}  // namespace

int main() {
    std::printf("QoS router port: 20 Mb/s link, premium video + voice vs bursty "
                "best-effort\n\n");

    // Fair queueing with the paper's sorter as the tag queue.
    {
        sched_prog::PifoScheduler::Config cfg;
        cfg.rank.link_rate_bps = kLinkRate;
        cfg.rank.tag_granularity_bits = -6;
        const baselines::TagQueue* sorter = nullptr;
        sched_prog::PifoScheduler wfq(cfg, [&] {
            auto queue = baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                                   {20, 1 << 16});
            sorter = queue.get();
            return queue;
        });
        auto flows = make_traffic();
        net::SimDriver driver(kLinkRate);
        const auto result = driver.run(wfq, flows);
        report("WFQ + multi-bit tree sorter", result, flows.size());

        const auto& stats = sorter->stats();
        std::printf("sorter activity: %llu inserts, worst %llu SRAM accesses/op\n\n",
                    static_cast<unsigned long long>(stats.inserts),
                    static_cast<unsigned long long>(stats.worst_insert_accesses));
    }

    // The same traffic through a plain FIFO.
    {
        scheduler::FifoScheduler fifo;
        auto flows = make_traffic();
        net::SimDriver driver(kLinkRate);
        const auto result = driver.run(fifo, flows);
        report("FIFO (best effort)", result, flows.size());
    }

    std::printf("The premium flows keep their shares and millisecond delays under\n");
    std::printf("WFQ; under FIFO the bursts inflate everyone's delay by orders of\n");
    std::printf("magnitude — the paper's case for hardware fair queueing.\n");
    return 0;
}
