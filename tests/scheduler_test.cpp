// Tests for the scheduler module: the shared packet buffer, the WRR/DRR/
// SRR family's bandwidth shares, FIFO, and the fair-queueing scheduler's
// structural behaviour. MDRR and CBQ are hierarchies over DRR; their
// tests live with HierScheduler in sched_prog_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "scheduler/fifo.hpp"
#include "scheduler/packet_buffer.hpp"
#include "scheduler/round_robin.hpp"

namespace wfqs::scheduler {
namespace {

constexpr net::TimeNs kSecond = 1'000'000'000;

// ----------------------------------------------------------- buffer

TEST(PacketBuffer, StoreRetrieveRoundTrip) {
    SharedPacketBuffer buf({4096, 64});
    const net::Packet p{1, 0, 500, 123};
    const auto ref = buf.store(p);
    ASSERT_TRUE(ref.has_value());
    EXPECT_EQ(buf.stored_packets(), 1u);
    EXPECT_EQ(buf.used_cells(), 8u);  // ceil(500/64)
    const net::Packet back = buf.retrieve(*ref);
    EXPECT_EQ(back.id, 1u);
    EXPECT_EQ(back.size_bytes, 500u);
    EXPECT_EQ(buf.used_cells(), 0u);
}

TEST(PacketBuffer, PeekDoesNotFree) {
    SharedPacketBuffer buf({4096, 64});
    const auto ref = buf.store({7, 2, 100, 0});
    EXPECT_EQ(buf.peek(*ref).id, 7u);
    EXPECT_EQ(buf.stored_packets(), 1u);
}

TEST(PacketBuffer, SharesCellsAcrossPacketSizes) {
    SharedPacketBuffer buf({64 * 10, 64});  // 10 cells
    const auto big = buf.store({1, 0, 64 * 6, 0});
    ASSERT_TRUE(big.has_value());
    const auto small = buf.store({2, 0, 64 * 4, 0});
    ASSERT_TRUE(small.has_value());
    EXPECT_FALSE(buf.store({3, 0, 64, 0}).has_value());  // pool exhausted
    EXPECT_EQ(buf.drops(), 1u);
    buf.retrieve(*big);
    EXPECT_TRUE(buf.store({4, 0, 64 * 5, 0}).has_value());  // cells recycled
}

TEST(PacketBuffer, TracksPeakOccupancy) {
    SharedPacketBuffer buf({4096, 64});
    const auto a = buf.store({1, 0, 640, 0});
    buf.retrieve(*a);
    EXPECT_EQ(buf.peak_used_cells(), 10u);
}

TEST(PacketBuffer, ChurnMatchesCellCountModel) {
    // Random store/retrieve churn against a plain model that charges
    // ceil(max(size, 1) / cell) cells to each live packet: admission,
    // drops, occupancy and its peak must agree after every step. Small
    // pools make tail drops common; 1-byte and 1500-byte packets sit at
    // both ends of the cell count.
    struct Pool {
        std::size_t total_bytes;
        std::size_t cell_bytes;
    };
    const Pool pools[] = {{64 * 2, 64}, {64 * 24, 64}, {100 * 16, 16},
                          {1500 * 7, 128}, {64 * 1024, 64}};
    Rng rng(4242);
    for (const Pool& pool : pools) {
        SCOPED_TRACE(std::to_string(pool.total_bytes) + "/" +
                     std::to_string(pool.cell_bytes));
        SharedPacketBuffer buf({pool.total_bytes, pool.cell_bytes});
        const std::size_t total = pool.total_bytes / pool.cell_bytes;
        ASSERT_EQ(buf.total_cells(), total);
        const auto cells = [&](std::uint32_t bytes) {
            return (std::max<std::uint32_t>(bytes, 1) + pool.cell_bytes - 1) /
                   pool.cell_bytes;
        };
        std::vector<std::pair<BufferRef, net::Packet>> live;
        std::size_t used = 0, peak = 0;
        std::uint64_t drops = 0, id = 0;
        for (int step = 0; step < 6000; ++step) {
            if (live.empty() || rng.next_bool(0.55)) {
                std::uint32_t size;
                switch (rng.next_below(4)) {
                    case 0: size = 1; break;
                    case 1: size = 1500; break;
                    case 2: size = static_cast<std::uint32_t>(pool.cell_bytes); break;
                    default: size = static_cast<std::uint32_t>(rng.next_range(1, 1500));
                }
                const net::Packet p{id++, static_cast<net::FlowId>(step % 3), size,
                                    static_cast<net::TimeNs>(step)};
                const auto ref = buf.store(p);
                const bool fits = total - used >= cells(size);
                ASSERT_EQ(ref.has_value(), fits) << "step " << step;
                if (ref) {
                    ASSERT_TRUE(buf.holds(*ref));
                    used += cells(size);
                    peak = std::max(peak, used);
                    live.emplace_back(*ref, p);
                } else {
                    ++drops;
                }
            } else {
                const std::size_t pick = rng.next_below(live.size());
                const auto [ref, want] = live[pick];
                ASSERT_EQ(buf.peek(ref).id, want.id);
                const net::Packet got = buf.retrieve(ref);
                ASSERT_EQ(got.id, want.id);
                ASSERT_EQ(got.size_bytes, want.size_bytes);
                ASSERT_FALSE(buf.holds(ref));
                used -= cells(want.size_bytes);
                live[pick] = live.back();
                live.pop_back();
            }
            ASSERT_EQ(buf.used_cells(), used) << "step " << step;
            ASSERT_EQ(buf.peak_used_cells(), peak) << "step " << step;
            ASSERT_EQ(buf.drops(), drops) << "step " << step;
            ASSERT_EQ(buf.stored_packets(), live.size()) << "step " << step;
        }
        EXPECT_GT(drops, 0u);
        for (const auto& [ref, p] : live) EXPECT_EQ(buf.retrieve(ref).id, p.id);
        EXPECT_EQ(buf.used_cells(), 0u);
    }
}

// ---------------------------------------------------- helper workload

struct ShareResult {
    std::uint64_t bytes0 = 0;
    std::uint64_t bytes1 = 0;
};

ShareResult measure_shares(Scheduler& sched, std::uint32_t w0, std::uint32_t w1,
                           std::uint32_t size0 = 500, std::uint32_t size1 = 500) {
    std::vector<net::FlowSpec> flows;
    flows.push_back(
        {std::make_unique<net::CbrSource>(20'000'000, size0, 0, kSecond / 4), w0});
    flows.push_back(
        {std::make_unique<net::CbrSource>(20'000'000, size1, 0, kSecond / 4), w1});
    net::SimDriver driver(10'000'000);  // offered 2x the link
    const auto result = driver.run(sched, flows);
    ShareResult out;
    // Measure only while both flows are surely backlogged: the favoured
    // flow drains soon after arrivals stop, so use the first 40%.
    const std::size_t cutoff = result.records.size() * 4 / 10;
    for (std::size_t i = 0; i < cutoff; ++i) {
        const auto& r = result.records[i];
        (r.packet.flow == 0 ? out.bytes0 : out.bytes1) += r.packet.size_bytes;
    }
    return out;
}

// -------------------------------------------------------------- WRR

TEST(Wrr, SharesFollowWeightsForEqualSizes) {
    WrrScheduler wrr;
    const auto s = measure_shares(wrr, 3, 1);
    EXPECT_NEAR(static_cast<double>(s.bytes0) / s.bytes1, 3.0, 0.2);
}

TEST(Wrr, MisallocatesUnderUnequalPacketSizes) {
    // §I-B: "WRR requires the average packet size to be known" — with
    // equal weights but 4x packet sizes, WRR gives flow 0 ~4x bandwidth.
    WrrScheduler wrr;
    const auto s = measure_shares(wrr, 1, 1, 1000, 250);
    EXPECT_GT(static_cast<double>(s.bytes0) / s.bytes1, 3.0);
}

// -------------------------------------------------------------- DRR

TEST(Drr, SharesFollowWeightsForEqualSizes) {
    DrrScheduler drr;
    const auto s = measure_shares(drr, 3, 1);
    EXPECT_NEAR(static_cast<double>(s.bytes0) / s.bytes1, 3.0, 0.2);
}

TEST(Drr, ByteFairDespiteUnequalPacketSizes) {
    // §I-B: "DRR is able to process variable size packets without knowing
    // their mean size."
    DrrScheduler drr;
    const auto s = measure_shares(drr, 1, 1, 1000, 250);
    EXPECT_NEAR(static_cast<double>(s.bytes0) / s.bytes1, 1.0, 0.15);
}

TEST(Drr, QuantumCarriesAcrossRounds) {
    DrrScheduler drr(100);  // quantum smaller than the packets
    const auto s = measure_shares(drr, 1, 1, 700, 700);
    // Each flow needs several rounds per packet but shares stay equal.
    EXPECT_NEAR(static_cast<double>(s.bytes0) / s.bytes1, 1.0, 0.15);
}

TEST(Drr, PeekSizeIsTheNextDequeue) {
    // peek_size may rotate the round, but the packet it sizes is the one
    // the next dequeue serves — what a byte-charging parent relies on.
    DrrScheduler drr(500);
    const auto a = drr.add_flow(1);
    const auto b = drr.add_flow(3);
    const auto c = drr.add_flow(2);
    std::uint64_t id = 0;
    for (std::uint32_t i = 0; i < 40; ++i) {
        drr.enqueue({id++, a, 1400 - 30 * i, 0}, 0);
        drr.enqueue({id++, b, 64 + 37 * i, 0}, 0);
        if (i % 3 == 0) drr.enqueue({id++, c, 900, 0}, 0);
    }
    while (drr.has_packets()) {
        const auto head = drr.peek_size(0);
        ASSERT_TRUE(head.has_value());
        EXPECT_EQ(drr.peek_size(0), head);  // idempotent
        const auto pkt = drr.dequeue(0);
        ASSERT_TRUE(pkt.has_value());
        EXPECT_EQ(pkt->size_bytes, *head);
    }
    EXPECT_FALSE(drr.peek_size(0).has_value());
}

// -------------------------------------------------------------- SRR

TEST(Srr, StrataFollowWeightClasses) {
    SrrScheduler srr;
    const auto s = measure_shares(srr, 4, 1);  // strata 2^2 vs 2^0
    EXPECT_NEAR(static_cast<double>(s.bytes0) / s.bytes1, 4.0, 0.5);
}

TEST(Srr, ClassGranularityAggregatesWeights) {
    // Weights 5 and 7 land in the same stratum (both in [4,8)): SRR serves
    // them equally — the granularity loss §II-B cites.
    SrrScheduler srr;
    const auto s = measure_shares(srr, 5, 7);
    EXPECT_NEAR(static_cast<double>(s.bytes0) / s.bytes1, 1.0, 0.15);
}

// -------------------------------------------------------------- FIFO

TEST(Fifo, ServesInArrivalOrder) {
    FifoScheduler fifo;
    fifo.add_flow(1);
    fifo.add_flow(1);
    fifo.enqueue({1, 0, 100, 10}, 10);
    fifo.enqueue({2, 1, 100, 20}, 20);
    fifo.enqueue({3, 0, 100, 30}, 30);
    EXPECT_EQ(fifo.dequeue(40)->id, 1u);
    EXPECT_EQ(fifo.dequeue(50)->id, 2u);
    EXPECT_EQ(fifo.dequeue(60)->id, 3u);
}

// ------------------------------------- fair queueing (PIFO rank policies)

using sched_prog::PifoScheduler;

/// `cfg` over a fresh `kind` queue, at the -4 tag step these tests were
/// calibrated with.
PifoScheduler make_fq(PifoScheduler::Config cfg,
                      baselines::QueueKind kind = baselines::QueueKind::Heap) {
    cfg.rank.tag_granularity_bits = -4;
    return PifoScheduler(cfg, [kind] { return baselines::make_tag_queue(kind); });
}

TEST(FairQueueing, SharesFollowWeightsWithVariableSizes) {
    PifoScheduler::Config cfg;
    cfg.rank.link_rate_bps = 10'000'000;
    auto wfq = make_fq(cfg);
    const auto s = measure_shares(wfq, 3, 1, 1000, 250);
    EXPECT_NEAR(static_cast<double>(s.bytes0) / s.bytes1, 3.0, 0.3);
}

TEST(FairQueueing, DropsWhenBufferFull) {
    PifoScheduler::Config cfg;
    cfg.buffer = {1024, 64};
    auto wfq = make_fq(cfg);
    wfq.add_flow(1);
    net::TimeNs t = 0;
    std::uint64_t accepted = 0;
    for (int i = 0; i < 100; ++i)
        if (wfq.enqueue({static_cast<std::uint64_t>(i), 0, 640, t}, t)) ++accepted;
    EXPECT_LT(accepted, 100u);
    EXPECT_GT(wfq.drops(), 0u);
}

TEST(FairQueueing, NameReflectsAlgorithmAndQueue) {
    PifoScheduler::Config cfg;
    cfg.policy = sched_prog::RankPolicy::kScfq;
    const auto s = make_fq(cfg, baselines::QueueKind::Skiplist);
    EXPECT_EQ(s.name(), "PIFO-scfq(skip list)");
}

}  // namespace
}  // namespace wfqs::scheduler
