// The post-mortem channel and the driver's observers: the FlightRecorder
// ring and its replayable dump format, the SimDriver's net.* metrics and
// its trace instants (each must count every packet without perturbing the
// run).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "baselines/factory.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "proptest/proptest.hpp"
#include "sched_prog/pifo_scheduler.hpp"

namespace wfqs {
namespace {

constexpr net::TimeNs kMs = 1'000'000;

// ---------------------------------------------------------------------------
// FlightRecorder

TEST(FlightRecorder, RingKeepsTheNewestEvents) {
    obs::FlightRecorder rec(4);
    for (int i = 0; i < 10; ++i)
        rec.record(obs::FlightEventKind::kNote, i, i, 0);
    EXPECT_EQ(rec.size(), 4u);
    EXPECT_EQ(rec.total_recorded(), 10u);
    const auto events = rec.snapshot();
    ASSERT_EQ(events.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].seq, 6u + i);  // oldest first
        EXPECT_EQ(events[i].a, static_cast<std::int64_t>(6 + i));
    }
}

TEST(FlightRecorder, DumpIsAReplayableOpsFile) {
    obs::FlightRecorder rec(64);
    rec.record(obs::FlightEventKind::kInsert, 0.0, 12);
    rec.record(obs::FlightEventKind::kInsert, 1.0, -3);
    rec.record(obs::FlightEventKind::kFault, 1.5, 7);
    rec.record(obs::FlightEventKind::kPop, 2.0);
    rec.record(obs::FlightEventKind::kCombined, 3.0, 5);
    rec.record(obs::FlightEventKind::kDivergence, 4.0, 99);
    std::ostringstream os;
    rec.dump(os, "unit test\ntwo reason lines");
    const std::string text = os.str();
    EXPECT_NE(text.find("# wfqs-ops v1"), std::string::npos);
    EXPECT_NE(text.find("# unit test"), std::string::npos);
    EXPECT_NE(text.find("# ev 2 fault"), std::string::npos);

    // The op tail parses with the proptest grammar: annotations are
    // comments, ops survive with their deltas.
    const proptest::OpSeq ops = proptest::parse_ops(text);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].kind, proptest::OpKind::kInsert);
    EXPECT_EQ(ops[0].delta, 12);
    EXPECT_EQ(ops[1].delta, -3);
    EXPECT_EQ(ops[2].kind, proptest::OpKind::kPop);
    EXPECT_EQ(ops[3].kind, proptest::OpKind::kCombined);
    EXPECT_EQ(ops[3].delta, 5);
}

TEST(FlightRecorder, FreeFunctionRecordsOnlyWhenInstalled) {
    obs::flight_record(obs::FlightEventKind::kNote, 0.0);  // no recorder: no-op
    {
        obs::FlightRecorder rec(8);
        obs::FlightRecorder::install(&rec);
        obs::flight_record(obs::FlightEventKind::kNote, 1.0, 42);
        EXPECT_EQ(rec.size(), 1u);
        EXPECT_EQ(rec.snapshot()[0].a, 42);
    }
    // Destructor uninstalled it; recording is a no-op again.
    EXPECT_EQ(obs::FlightRecorder::current(), nullptr);
    obs::flight_record(obs::FlightEventKind::kNote, 2.0);
}

// ---------------------------------------------------------------------------
// Driver integration: net.* metrics and trace instants

/// Field-by-field SimResult equality: byte-for-byte the same run.
bool identical_results(const net::SimResult& a, const net::SimResult& b) {
    const auto same_packet = [](const net::Packet& x, const net::Packet& y) {
        return x.id == y.id && x.flow == y.flow && x.size_bytes == y.size_bytes &&
               x.arrival_ns == y.arrival_ns;
    };
    if (a.offered_packets != b.offered_packets ||
        a.dropped_packets != b.dropped_packets ||
        a.sorter_faults != b.sorter_faults ||
        a.last_departure_ns != b.last_departure_ns ||
        a.all_arrivals.size() != b.all_arrivals.size() ||
        a.records.size() != b.records.size())
        return false;
    for (std::size_t i = 0; i < a.all_arrivals.size(); ++i)
        if (!same_packet(a.all_arrivals[i], b.all_arrivals[i])) return false;
    for (std::size_t i = 0; i < a.records.size(); ++i) {
        if (!same_packet(a.records[i].packet, b.records[i].packet) ||
            a.records[i].service_start_ns != b.records[i].service_start_ns ||
            a.records[i].departure_ns != b.records[i].departure_ns)
            return false;
    }
    return true;
}

constexpr std::uint64_t kRate = 50'000'000;

sched_prog::PifoScheduler make_wfq() {
    sched_prog::PifoScheduler::Config cfg;
    cfg.rank.link_rate_bps = kRate;
    cfg.rank.tag_granularity_bits = -6;
    return sched_prog::PifoScheduler(cfg, [] {
        return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                         {20, 1 << 16});
    });
}

TEST(DriverTelemetry, AttachedMetricsCountEveryPacket) {
    // Attaching a registry must not perturb the run: the same workload
    // with and without metrics produces identical SimResults, and the
    // attached counters match the result exactly.
    const auto run_with = [](obs::MetricsRegistry* reg) {
        auto sched = make_wfq();
        auto flows = net::make_mixed_profile(50 * kMs, 11);
        net::SimDriver driver(kRate);
        if (reg != nullptr) driver.attach_metrics(*reg);
        return driver.run(sched, flows);
    };
    obs::MetricsRegistry reg;
    const auto result = run_with(&reg);
    EXPECT_TRUE(identical_results(run_with(nullptr), result));
    ASSERT_GT(result.offered_packets, 0u);
    const auto counters = reg.counter_values();
    EXPECT_EQ(counters.at("net.offered_packets"), result.offered_packets);
    EXPECT_EQ(counters.at("net.dropped_packets"), result.dropped_packets);
    EXPECT_EQ(counters.at("net.delivered_packets"), result.records.size());
    EXPECT_EQ(counters.at("net.sorter_faults"), 0u);
    EXPECT_EQ(reg.histogram("net.delay_us").stats().count(), result.records.size());
}

TEST(DriverTelemetry, ProfiledRunFeedsProfilerAndStaysIdentical) {
    // A traced run is the driver's per-packet profile: with a Tracer
    // installed the run must be identical to a plain run, and the trace
    // must carry one instant per arrival and one per departure (beside the
    // sorter's own spans).
    const auto run = [] {
        auto sched = make_wfq();
        auto flows = net::make_mixed_profile(50 * kMs, 13);
        net::SimDriver driver(kRate);
        return driver.run(sched, flows);
    };
    const auto plain = run();
    obs::Tracer tracer;
    obs::Tracer::install(&tracer);
    const auto profiled = run();
    obs::Tracer::install(nullptr);
    EXPECT_TRUE(identical_results(plain, profiled));
    ASSERT_EQ(plain.dropped_packets, 0u);  // every arrival is also served
    ASSERT_EQ(plain.sorter_faults, 0u);    // so no fault instants either
    EXPECT_EQ(tracer.open_spans(), 0u);
    const std::string json = tracer.to_json();
    const auto count = [&](const std::string& needle) {
        std::uint64_t n = 0;
        for (auto at = json.find(needle); at != std::string::npos;
             at = json.find(needle, at + needle.size()))
            ++n;
        return n;
    };
    EXPECT_EQ(count("\"name\":\"arrival\""), plain.offered_packets);
    EXPECT_EQ(count("\"name\":\"departure\""), plain.records.size());
    EXPECT_EQ(count("\"name\":\"drop\""), 0u);
}

}  // namespace
}  // namespace wfqs
