// Tests for the scheduler module: the shared packet buffer, the WRR/DRR/
// MDRR/SRR family's bandwidth shares, FIFO, and the fair-queueing
// scheduler's structural behaviour.
#include <gtest/gtest.h>

#include "baselines/factory.hpp"
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

// -------------------------------------------------------------- MDRR

TEST(Mdrr, PriorityFlowGetsLowDelay) {
    MdrrScheduler mdrr;
    std::vector<net::FlowSpec> flows;
    flows.push_back({std::make_unique<net::VoipSource>(kSecond, 5), 1});  // priority
    flows.push_back(
        {std::make_unique<net::CbrSource>(20'000'000, 1500, 0, kSecond), 1});
    net::SimDriver driver(10'000'000);
    const auto result = driver.run(mdrr, flows);
    // Every VoIP packet should depart within (its own + one blocking
    // packet's) transmission time of arrival.
    const net::TimeNs bound =
        net::transmission_ns(200, 10'000'000) + net::transmission_ns(1500, 10'000'000);
    for (const auto& r : result.records) {
        if (r.packet.flow != 0) continue;
        EXPECT_LE(r.delay_ns(), bound) << "VoIP packet " << r.packet.id;
    }
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
