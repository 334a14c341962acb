// Tests for the network substrate: traffic generator statistics, packet
// helpers, and the simulation driver's event mechanics.
#include <gtest/gtest.h>

#include "fingerprint.hpp"
#include "net/packet.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "scheduler/fifo.hpp"

namespace wfqs::net {
namespace {

constexpr TimeNs kSecond = 1'000'000'000;

std::vector<Arrival> collect(TrafficSource& src) {
    std::vector<Arrival> out;
    while (auto a = src.next()) out.push_back(*a);
    return out;
}

TEST(PacketHelpers, TransmissionTime) {
    EXPECT_EQ(transmission_ns(125, 1'000'000'000), 1000u);  // 1000 bits at 1 Gb/s
    EXPECT_EQ(transmission_ns(1500, 1'000'000'000), 12000u);
    EXPECT_GT(transmission_ns(1, 40'000'000'000ULL), 0u);  // rounds up, never 0
}

TEST(CbrSource, ExactRateAndSpacing) {
    CbrSource src(1'000'000, 125, 0, kSecond);  // 1 Mb/s, 1000-bit packets
    const auto arrivals = collect(src);
    EXPECT_EQ(arrivals.size(), 1000u);
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        EXPECT_EQ(arrivals[i].time_ns - arrivals[i - 1].time_ns, 1'000'000u);
}

TEST(CbrSource, RespectsStartTime) {
    CbrSource src(1'000'000, 125, kSecond / 2, kSecond);
    const auto arrivals = collect(src);
    EXPECT_EQ(arrivals.front().time_ns, kSecond / 2);
    EXPECT_EQ(arrivals.size(), 500u);
}

TEST(PoissonSource, MeanRateWithinTolerance) {
    PoissonSource src(5000.0, 64, 1500, 10 * kSecond, 42);
    const auto arrivals = collect(src);
    EXPECT_NEAR(static_cast<double>(arrivals.size()), 50000.0, 1500.0);
    for (const auto& a : arrivals) {
        EXPECT_GE(a.size_bytes, 64u);
        EXPECT_LE(a.size_bytes, 1500u);
    }
}

TEST(PoissonSource, TimesMonotone) {
    PoissonSource src(1000.0, 100, 100, kSecond, 7);
    TimeNs prev = 0;
    while (auto a = src.next()) {
        EXPECT_GE(a->time_ns, prev);
        prev = a->time_ns;
    }
}

TEST(OnOffPareto, BurstsAtPeakRate) {
    OnOffParetoSource src(10'000'000, 1250, 0.01, 0.05, 1.5, 10 * kSecond, 11);
    const auto arrivals = collect(src);
    ASSERT_GT(arrivals.size(), 100u);
    // Within a burst, spacing equals the peak-rate serialization time.
    const TimeNs gap = transmission_ns(1250, 10'000'000);
    std::size_t tight_gaps = 0;
    for (std::size_t i = 1; i < arrivals.size(); ++i)
        if (arrivals[i].time_ns - arrivals[i - 1].time_ns == gap) ++tight_gaps;
    EXPECT_GT(tight_gaps, arrivals.size() / 3);
}

TEST(VoipSource, TwentyMsFramesInSpurts) {
    VoipSource src(30 * kSecond, 3);
    const auto arrivals = collect(src);
    ASSERT_GT(arrivals.size(), 100u);
    std::size_t frame_gaps = 0;
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
        const TimeNs d = arrivals[i].time_ns - arrivals[i - 1].time_ns;
        if (d == 20'000'000u) ++frame_gaps;
        EXPECT_EQ(arrivals[i].size_bytes, 200u);
    }
    EXPECT_GT(frame_gaps, arrivals.size() / 2);
}

TEST(VideoSource, FragmentsRespectMtu) {
    VideoSource src(30.0, 12000, 1500, 2 * kSecond, 13);
    const auto arrivals = collect(src);
    ASSERT_GT(arrivals.size(), 50u);
    for (const auto& a : arrivals) EXPECT_LE(a.size_bytes, 1500u);
}

// ----------------------------------------- end-of-window boundaries
//
// Every source emits over the half-open window [start_ns, end_ns); an
// arrival stamped exactly end_ns must not appear (see the convention
// note at the top of net/traffic_gen.hpp).

TEST(WindowBoundary, CbrExcludesArrivalLandingExactlyOnEnd) {
    // 1 ms grid: arrivals at 0, 1ms, ..., and the one at end_ns == 5 ms
    // falls exactly on the boundary — it must be suppressed.
    CbrSource src(1'000'000, 125, 0, 5'000'000);
    const auto arrivals = collect(src);
    ASSERT_EQ(arrivals.size(), 5u);
    EXPECT_EQ(arrivals.back().time_ns, 4'000'000u);
    // Widening the window by a single nanosecond admits the boundary tick.
    CbrSource inclusive(1'000'000, 125, 0, 5'000'001);
    EXPECT_EQ(collect(inclusive).size(), 6u);
}

TEST(WindowBoundary, BackToBackCbrWindowsPartitionTime) {
    // [0,T) followed by [T,2T) must reproduce [0,2T) exactly: no boundary
    // arrival duplicated or lost at the seam.
    constexpr TimeNs kT = 7'000'000;
    CbrSource first(1'000'000, 125, 0, kT);
    CbrSource second(1'000'000, 125, kT, 2 * kT);
    CbrSource whole(1'000'000, 125, 0, 2 * kT);
    auto a = collect(first);
    const auto b = collect(second);
    a.insert(a.end(), b.begin(), b.end());
    const auto w = collect(whole);
    ASSERT_EQ(a.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i)
        EXPECT_EQ(a[i].time_ns, w[i].time_ns);
}

TEST(WindowBoundary, RandomSourcesStayStrictlyBeforeEnd) {
    constexpr TimeNs kEnd = kSecond / 4;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        PoissonSource poisson(20000.0, 64, 1500, kEnd, seed);
        while (auto a = poisson.next()) EXPECT_LT(a->time_ns, kEnd);
        OnOffParetoSource onoff(10'000'000, 1250, 0.01, 0.02, 1.5, kEnd, seed);
        while (auto a = onoff.next()) EXPECT_LT(a->time_ns, kEnd);
        VoipSource voip(kEnd, seed);
        while (auto a = voip.next()) EXPECT_LT(a->time_ns, kEnd);
        VideoSource video(30.0, 12000, 1500, kEnd, seed);
        while (auto a = video.next()) EXPECT_LT(a->time_ns, kEnd);
    }
}

TEST(WindowBoundary, NextRangeIsInclusiveOfBothEndpoints) {
    // The sources' size draws rely on Rng::next_range being the closed
    // interval [lo, hi]; pin that contract here where the window tests
    // that depend on it live.
    Rng rng(99);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 4096; ++i) {
        const std::uint64_t v = rng.next_range(10, 13);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 13u);
        saw_lo |= (v == 10);
        saw_hi |= (v == 13);
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
    // Degenerate interval: a single point returns that point.
    EXPECT_EQ(rng.next_range(42, 42), 42u);
}

TEST(Profiles, MixedProfileHasDiverseFlows) {
    auto flows = make_mixed_profile(kSecond, 1);
    EXPECT_GE(flows.size(), 5u);
    std::uint32_t min_w = ~0u, max_w = 0;
    for (auto& f : flows) {
        min_w = std::min(min_w, f.weight);
        max_w = std::max(max_w, f.weight);
    }
    EXPECT_LT(min_w, max_w);  // weights genuinely differ
}

// ------------------------------------------------------------- driver

TEST(SimDriver, ServesEverythingThroughFifo) {
    scheduler::FifoScheduler fifo;
    std::vector<FlowSpec> flows;
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, kSecond), 1});
    SimDriver driver(10'000'000);  // 10x the offered load
    const auto result = driver.run(fifo, flows);
    EXPECT_EQ(result.offered_packets, 1000u);
    EXPECT_EQ(result.records.size(), 1000u);
    EXPECT_EQ(result.dropped_packets, 0u);
}

TEST(SimDriver, DeparturesRespectLinkRate) {
    scheduler::FifoScheduler fifo;
    std::vector<FlowSpec> flows;
    // Two sources together offer 2 Mb/s into a 1 Mb/s link: the link must
    // never transmit two packets overlapping.
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, kSecond / 4), 1});
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, kSecond / 4), 1});
    SimDriver driver(1'000'000);
    const auto result = driver.run(fifo, flows);
    TimeNs prev_done = 0;
    for (const auto& r : result.records) {
        EXPECT_GE(r.service_start_ns, prev_done);
        EXPECT_EQ(r.departure_ns - r.service_start_ns,
                  transmission_ns(r.packet.size_bytes, 1'000'000));
        EXPECT_GE(r.service_start_ns, r.packet.arrival_ns);
        prev_done = r.departure_ns;
    }
}

TEST(SimDriver, WorkConservingLinkGoesIdleOnlyWhenEmpty) {
    scheduler::FifoScheduler fifo;
    std::vector<FlowSpec> flows;
    flows.push_back({std::make_unique<CbrSource>(500'000, 125, 0, kSecond), 1});
    SimDriver driver(1'000'000);  // under-loaded: every packet served alone
    const auto result = driver.run(fifo, flows);
    for (const auto& r : result.records)
        EXPECT_EQ(r.service_start_ns, r.packet.arrival_ns);  // no queueing
}

TEST(SimDriver, CountsDropsWhenBufferTiny) {
    scheduler::SharedPacketBuffer::Config tiny{1024, 64};
    scheduler::FifoScheduler fifo(tiny);
    std::vector<FlowSpec> flows;
    // Burst far beyond 16 cells of buffer at a slow link.
    flows.push_back({std::make_unique<CbrSource>(100'000'000, 1000, 0, kSecond / 100), 1});
    SimDriver driver(1'000'000);
    const auto result = driver.run(fifo, flows);
    EXPECT_GT(result.dropped_packets, 0u);
    EXPECT_EQ(result.records.size() + result.dropped_packets, result.offered_packets);
}

TEST(SimDriver, SimultaneousArrivalsKeepSourceOrder) {
    // Arrivals that share a timestamp reach the scheduler in (time, seq)
    // order, where seq numbers each arrival when its source's previous one
    // is delivered: source order at time 0, and the order of the previous
    // deliveries after that. Flows 0, 1, 3 and 4 share a 1 ms period,
    // flow 2 fires every 0.5 ms, flow 3 runs dry after three packets and
    // flow 5 never emits. A FIFO with a 40-cell buffer on a slow link
    // makes both the departures and the tail drops depend on that order.
    scheduler::FifoScheduler fifo({64 * 40, 64});
    const TimeNs end = kSecond / 100;
    std::vector<FlowSpec> flows;
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, end), 1});
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, 0, end), 1});
    flows.push_back({std::make_unique<CbrSource>(2'000'000, 125, 0, end), 1});
    flows.push_back({std::make_unique<CbrSource>(4'000'000, 500, 0, 3'000'000), 1});
    flows.push_back({std::make_unique<CbrSource>(8'000'000, 1000, 0, end), 1});
    flows.push_back({std::make_unique<CbrSource>(1'000'000, 125, end, end), 1});
    SimDriver driver(4'000'000);
    const auto result = driver.run(fifo, flows);

    ASSERT_GE(result.all_arrivals.size(), 5u);
    for (FlowId f = 0; f < 5; ++f) {
        EXPECT_EQ(result.all_arrivals[f].flow, f);
        EXPECT_EQ(result.all_arrivals[f].arrival_ns, 0u);
    }
    EXPECT_GT(result.dropped_packets, 0u);
    EXPECT_EQ(result.records.size() + result.dropped_packets, result.offered_packets);

    Fingerprint arrivals;
    for (const auto& p : result.all_arrivals) {
        arrivals.mix(p.id);
        arrivals.mix(p.flow);
        arrivals.mix(p.arrival_ns);
    }
    // Recorded from the std::priority_queue arrival merge.
    EXPECT_EQ(result.offered_packets, 53u);
    EXPECT_EQ(result.dropped_packets, 12u);
    EXPECT_EQ(arrivals.value(), 0xb90a91216a74895aULL);
    EXPECT_EQ(departure_fingerprint(result), 0x55cb9de518822331ULL);
}

}  // namespace
}  // namespace wfqs::net
