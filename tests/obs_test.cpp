// Unit tests for src/obs: the metrics registry, the cycle-level tracer,
// the JSON writer, and the bench export helpers — plus the register_metrics
// hookups on the sorter, the SRAM inventory, and the scheduler boundary.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "core/tag_sorter.hpp"
#include "hw/simulation.hpp"
#include "obs/bench_io.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "scheduler/fifo.hpp"

namespace wfqs::obs {
namespace {

// ---------------------------------------------------------------- json

TEST(JsonWriter, ObjectsArraysAndEscaping) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object();
    w.field("s", "a\"b\\c\n");
    w.field("i", std::uint64_t{42});
    w.field("d", 1.5);
    w.field("t", true);
    w.key("arr").begin_array();
    w.value(std::uint64_t{1});
    w.value(std::uint64_t{2});
    w.end_array();
    w.end_object();
    EXPECT_EQ(os.str(),
              "{\"s\":\"a\\\"b\\\\c\\n\",\"i\":42,\"d\":1.5,\"t\":true,"
              "\"arr\":[1,2]}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_array();
    w.value(std::nan(""));
    w.value(INFINITY);
    w.end_array();
    EXPECT_EQ(os.str(), "[null,null]");
}

// ---------------------------------------------------------------- metrics

TEST(MetricsRegistry, OwnedCounterFindOrCreate) {
    MetricsRegistry reg;
    reg.counter("a").inc();
    reg.counter("a").inc(4);
    EXPECT_EQ(reg.counter("a").value(), 5u);
    EXPECT_TRUE(reg.contains("a"));
    EXPECT_FALSE(reg.contains("b"));
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_EQ(reg.counter_values().at("a"), 5u);
}

TEST(MetricsRegistry, OwnedGauge) {
    MetricsRegistry reg;
    reg.gauge("g").set(2.5);
    reg.gauge("g").set(3.5);  // same object, last write wins
    EXPECT_DOUBLE_EQ(reg.gauge_values().at("g"), 3.5);
}

TEST(MetricsRegistry, ViewsSampleAtSnapshotTime) {
    MetricsRegistry reg;
    std::uint64_t hits = 0;
    double level = 0.0;
    reg.register_counter_fn("hits", [&] { return hits; });
    reg.register_gauge_fn("level", [&] { return level; });
    EXPECT_EQ(reg.counter_values().at("hits"), 0u);
    hits = 7;
    level = -1.25;
    EXPECT_EQ(reg.counter_values().at("hits"), 7u);
    EXPECT_DOUBLE_EQ(reg.gauge_values().at("level"), -1.25);
}

TEST(MetricsRegistry, HistogramViewAndOwned) {
    MetricsRegistry reg;
    CycleHistogram external(0.0, 8.0, 8);
    external.record(3.0);
    reg.register_histogram("ext", &external);
    reg.histogram("own", 0.0, 16.0, 16).record(10.0);
    const auto hists = reg.histograms();
    EXPECT_EQ(hists.at("ext")->stats().count(), 1u);
    EXPECT_DOUBLE_EQ(hists.at("own")->stats().max(), 10.0);
}

TEST(MetricsRegistry, NameCollisionAcrossKindsThrows) {
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.register_counter_fn("x", [] { return std::uint64_t{0}; }),
                 std::invalid_argument);
    reg.register_gauge_fn("y", [] { return 0.0; });
    EXPECT_THROW(reg.gauge("y"), std::invalid_argument);
    CycleHistogram h;
    reg.register_histogram("z", &h);
    EXPECT_THROW(reg.register_histogram("z", &h), std::invalid_argument);
}

TEST(CycleHistogram, MomentsAndQuantiles) {
    CycleHistogram h(0.0, 10.0, 10);  // one bin per cycle
    for (int i = 0; i < 4; ++i) h.record(4.0);
    h.record(9.0);
    EXPECT_EQ(h.stats().count(), 5u);
    EXPECT_DOUBLE_EQ(h.stats().max(), 9.0);
    // Four of five samples sit in bin [4,5): the median's covering bin.
    EXPECT_DOUBLE_EQ(h.approx_quantile(0.5), 5.0);
    // The top quantile clamps to the exact observed max.
    EXPECT_DOUBLE_EQ(h.approx_quantile(1.0), 9.0);
}

// Values whose square would overflow the integer lane's uint64 moments
// (>= 2^31) must detour through the double lane, not wrap silently. Both
// lanes fold into one summary, so count/mean/stddev stay sane.
TEST(CycleHistogram, HugeCycleCountsDoNotOverflowIntegerMoments) {
    CycleHistogram h;  // unit bins: record_cycles takes the integer lane
    const std::uint64_t huge = std::uint64_t{1} << 33;
    h.record_cycles(huge);
    h.record_cycles(huge);
    h.record_cycles(2);
    const RunningStats s = h.stats();
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.max(), static_cast<double>(huge));
    const double mean = (2.0 * static_cast<double>(huge) + 2.0) / 3.0;
    EXPECT_NEAR(s.mean(), mean, 1.0);
    EXPECT_GT(s.stddev(), 0.0);
    EXPECT_TRUE(std::isfinite(s.stddev()));
}

TEST(CycleHistogram, NaNGoesToRejectCounterNotStats) {
    CycleHistogram h;
    h.record(std::nan(""));
    EXPECT_EQ(h.stats().count(), 0u);
    EXPECT_EQ(h.bins().total(), 0u);
    EXPECT_EQ(h.bins().nan_rejects(), 1u);
}

TEST(MetricsRegistry, JsonSnapshotShape) {
    MetricsRegistry reg;
    reg.counter("c.one").inc(3);
    reg.gauge("g.one").set(0.5);
    reg.histogram("h.one").record(2.0);
    const std::string json = reg.to_json();
    EXPECT_NE(json.find("\"counters\":{\"c.one\":3}"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\":{\"g.one\":0.5}"), std::string::npos);
    EXPECT_NE(json.find("\"h.one\":{\"count\":1"), std::string::npos);
    EXPECT_NE(json.find("\"nan_rejects\":0"), std::string::npos);
    EXPECT_NE(json.find("\"counts\":["), std::string::npos);
}

TEST(MetricsRegistry, TableSnapshotListsEveryMetric) {
    MetricsRegistry reg;
    reg.counter("c").inc();
    reg.gauge("g").set(1.0);
    reg.histogram("h").record(3.0);
    const std::string table = reg.to_table();
    EXPECT_NE(table.find("counter"), std::string::npos);
    EXPECT_NE(table.find("gauge"), std::string::npos);
    EXPECT_NE(table.find("histogram"), std::string::npos);
}

// ---------------------------------------------------------------- tracer

TEST(Tracer, SpansStampedFromSimClock) {
    hw::Simulation sim;
    Tracer tracer(&sim.clock());
    tracer.begin_span("op", "test");
    sim.clock().advance(5);
    tracer.end_span();
    EXPECT_EQ(tracer.event_count(), 1u);
    EXPECT_EQ(tracer.open_spans(), 0u);
    const std::string json = tracer.to_json();
    EXPECT_NE(json.find("\"name\":\"op\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\":5"), std::string::npos);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
}

TEST(Tracer, OpenSpansClosedOnExport) {
    Tracer tracer;
    tracer.begin_span("left-open", "test");
    EXPECT_EQ(tracer.open_spans(), 1u);
    const std::string json = tracer.to_json();
    EXPECT_EQ(tracer.open_spans(), 0u);
    EXPECT_NE(json.find("\"left-open\""), std::string::npos);
}

TEST(Tracer, InstantAndCounterEvents) {
    Tracer tracer;
    tracer.instant("drop", "net", 12.5);
    tracer.counter("depth", 1.0, 3.0);
    const std::string json = tracer.to_json();
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"ts\":12.5"), std::string::npos);
}

TEST(Tracer, MacrosAreNoOpsWithoutInstalledTracer) {
    ASSERT_EQ(Tracer::current(), nullptr);
    // Must compile and run without any tracer present.
    WFQS_TRACE_SPAN("idle", "test");
    WFQS_TRACE_INSTANT("idle", "test", 0.0);
}

TEST(Tracer, InstallRoutesMacrosAndUninstallsOnDestruction) {
    {
        Tracer tracer;
        Tracer::install(&tracer);
        {
            WFQS_TRACE_SPAN("scoped", "test");
        }
        WFQS_TRACE_INSTANT("point", "test", 1.0);
        EXPECT_EQ(tracer.event_count(), 2u);
    }
    // The destructor must deactivate a still-installed tracer.
    EXPECT_EQ(Tracer::current(), nullptr);
}

// ------------------------------------------------------- instrumentation

TEST(Instrumentation, SorterRegistersCountersAndCycleHistograms) {
    hw::Simulation sim;
    core::TagSorter sorter({tree::TreeGeometry::paper(), 256, 24}, sim);
    MetricsRegistry reg;
    sorter.register_metrics(reg);
    sim.register_metrics(reg);

    sorter.insert(10, 0);
    sorter.insert(5, 1);
    sorter.insert_and_pop(20, 2);
    sorter.pop_min();

    const auto counters = reg.counter_values();
    EXPECT_EQ(counters.at("sorter.inserts"), 2u);
    EXPECT_EQ(counters.at("sorter.pops"), 1u);
    EXPECT_EQ(counters.at("sorter.combined_ops"), 1u);
    EXPECT_GT(counters.at("hw.cycles"), 0u);
    EXPECT_GT(counters.at("sram.total.accesses"), 0u);

    const auto hists = reg.histograms();
    EXPECT_EQ(hists.at("sorter.insert_cycles")->stats().count(), 2u);
    EXPECT_EQ(hists.at("sorter.pop_cycles")->stats().count(), 1u);
    EXPECT_EQ(hists.at("sorter.combined_cycles")->stats().count(), 1u);
    // Every op costs at least one cycle, so the histograms saw real data.
    EXPECT_GE(hists.at("sorter.insert_cycles")->stats().min(), 1.0);
}

TEST(Instrumentation, SimulationRegistersPerSramViews) {
    hw::Simulation sim;
    core::TagSorter sorter({tree::TreeGeometry::paper(), 256, 24}, sim);
    MetricsRegistry reg;
    sim.register_metrics(reg);
    sorter.insert(1, 0);
    const auto counters = reg.counter_values();
    // One reads/writes/capacity set per SRAM in the inventory.
    std::size_t reads_views = 0;
    for (const auto& [name, value] : counters)
        if (name.size() > 6 && name.compare(name.size() - 6, 6, ".reads") == 0)
            ++reads_views;
    EXPECT_EQ(reads_views, sim.memories().size());
    EXPECT_GT(counters.at("sram.total.capacity_bits"), 0u);
}

TEST(Instrumentation, SchedulerBoundaryCounters) {
    scheduler::FifoScheduler fifo;
    fifo.add_flow(1);
    net::Packet p;
    p.flow = 0;
    p.size_bytes = 100;
    ASSERT_TRUE(fifo.enqueue(p, 0));
    ASSERT_TRUE(fifo.enqueue(p, 10));
    ASSERT_TRUE(fifo.dequeue(20).has_value());
    ASSERT_TRUE(fifo.dequeue(30).has_value());
    EXPECT_FALSE(fifo.dequeue(40).has_value());  // empty: not counted as served

    const auto& c = fifo.counters();
    EXPECT_EQ(c.offered_packets, 2u);
    EXPECT_EQ(c.offered_bytes, 200u);
    EXPECT_EQ(c.rejected_packets, 0u);
    EXPECT_EQ(c.served_packets, 2u);
    EXPECT_EQ(c.served_bytes, 200u);

    MetricsRegistry reg;
    fifo.register_metrics(reg);
    EXPECT_EQ(reg.counter_values().at("sched.FIFO.offered_packets"), 2u);
    EXPECT_TRUE(reg.contains("sched.FIFO.queued_packets"));
}

// ---------------------------------------------------------------- bench io

TEST(BenchIo, JsonPathFromArgv) {
    const char* argv1[] = {"bench", "--json", "/tmp/out.json"};
    auto p = bench_json_path("b", 3, const_cast<char**>(argv1));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, "/tmp/out.json");

    const char* argv2[] = {"bench", "--json=/tmp/eq.json"};
    p = bench_json_path("b", 2, const_cast<char**>(argv2));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, "/tmp/eq.json");

    const char* argv3[] = {"bench"};
    EXPECT_FALSE(bench_json_path("b", 1, const_cast<char**>(argv3)).has_value());
}

TEST(BenchIo, DirectoryExpandsToBenchName) {
    const char* argv1[] = {"bench", "--json", "/tmp/"};
    const auto p = bench_json_path("line_rate", 3, const_cast<char**>(argv1));
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, "/tmp/BENCH_line_rate.json");
}

TEST(BenchIo, EnvFallback) {
    ::setenv("WFQS_METRICS_JSON", "/tmp/env.json", 1);
    const char* argv1[] = {"bench"};
    const auto p = bench_json_path("b", 1, const_cast<char**>(argv1));
    ::unsetenv("WFQS_METRICS_JSON");
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(*p, "/tmp/env.json");
}

TEST(BenchIo, WritesSnapshotDocument) {
    const std::string path =
        ::testing::TempDir() + "wfqs_obs_test_snapshot.json";
    const char* argv[] = {"bench", "--json", path.c_str()};
    BenchReporter reporter("unit", 3, const_cast<char**>(argv));
    reporter.registry().counter("k").inc(9);
    EXPECT_EQ(reporter.seed(5), 5u);
    reporter.record_backend("ffs");
    reporter.finish();
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string doc = ss.str();
    EXPECT_NE(doc.find("\"bench\":\"unit\""), std::string::npos);
    EXPECT_NE(doc.find("\"schema\":1"), std::string::npos);
    EXPECT_NE(doc.find("\"seed\":5"), std::string::npos);
    EXPECT_NE(doc.find("\"backend\":\"ffs\""), std::string::npos);
    EXPECT_NE(doc.find("\"k\":9"), std::string::npos);
    std::remove(path.c_str());
}

}  // namespace
}  // namespace wfqs::obs
