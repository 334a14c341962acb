#include "obs/profiler.hpp"

#include <cstdio>
#include <fstream>

#include "common/assert.hpp"
#include "common/table.hpp"
#include "obs/json.hpp"

namespace wfqs::obs {

const char* HostProfiler::stage_name(Stage s) {
    switch (s) {
        case Stage::kGen: return "gen";
        case Stage::kSched: return "sched";
    }
    return "unknown";
}

HostProfiler::HostProfiler(std::size_t budget, std::chrono::milliseconds period)
    : series_(budget), period_(period) {
    WFQS_REQUIRE(period.count() > 0, "sampler period must be positive");
}

HostProfiler::~HostProfiler() {
    if (sampler_.joinable()) stop_sampling();
}

void HostProfiler::add_gauge(const std::string& name,
                             std::function<double()> fn) {
    WFQS_REQUIRE(!sampling(), "register probes before start_sampling()");
    series_.add_gauge(name, std::move(fn));
}

void HostProfiler::add_counter(const std::string& name,
                               std::function<std::uint64_t()> fn) {
    WFQS_REQUIRE(!sampling(), "register probes before start_sampling()");
    series_.add_counter(name, std::move(fn));
}

void HostProfiler::begin_run() {
    if (began_) return;
    began_ = true;
    t0_ = std::chrono::steady_clock::now();
}

void HostProfiler::end_run() {
    if (!began_ || ended_) return;
    ended_ = true;
    t1_ = std::chrono::steady_clock::now();
}

void HostProfiler::register_stage_probes() {
    if (probes_registered_) return;
    probes_registered_ = true;
    for (std::size_t i = 0; i < kStageCount; ++i) {
        const Stage s = static_cast<Stage>(i);
        const StageCounters* c = &stages_[i];
        series_.add_counter(std::string("stage.") + stage_name(s) + ".items",
                            [c] { return c->items(); });
    }
}

void HostProfiler::start_sampling() {
    WFQS_REQUIRE(!sampling(), "sampler already running");
    register_stage_probes();
    begin_run();
    stop_.store(false, std::memory_order_relaxed);
    sampler_ = std::thread([this] { sampler_loop(); });
}

void HostProfiler::stop_sampling() {
    if (!sampler_.joinable()) return;
    stop_.store(true, std::memory_order_relaxed);
    sampler_.join();
    end_run();
    // A final frame, so the live file ends on the run's closing counts.
    if (!live_path_.empty()) write_live();
}

void HostProfiler::sampler_loop() {
    while (!stop_.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(period_);
        const double t = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0_)
                             .count();
        series_.tick(t);
        if (!live_path_.empty()) write_live();
    }
}

double HostProfiler::elapsed_seconds() const {
    if (!began_) return 0.0;
    const auto end = ended_ ? t1_ : std::chrono::steady_clock::now();
    return std::chrono::duration<double>(end - t0_).count();
}

std::vector<HostProfiler::StageSummary> HostProfiler::summary() const {
    std::vector<StageSummary> out;
    out.reserve(kStageCount);
    for (std::size_t i = 0; i < kStageCount; ++i)
        out.push_back({stage_name(static_cast<Stage>(i)), stages_[i].items()});
    return out;
}

void HostProfiler::write_json(JsonWriter& w) const {
    w.begin_object();
    w.field("elapsed_s", elapsed_seconds());
    w.key("stages").begin_array();
    for (const StageSummary& s : summary()) {
        w.begin_object();
        w.field("name", s.name);
        w.field("items", s.items);
        w.end_object();
    }
    w.end_array();
    w.key("timeseries");
    series_.write_json(w);
    w.end_object();
}

std::string HostProfiler::to_table() const {
    TextTable t({"stage", "items"});
    for (const StageSummary& s : summary())
        if (s.items != 0) t.add_row({s.name, TextTable::num(s.items)});
    return t.render();
}

void HostProfiler::write_live() const {
    const std::string tmp = live_path_ + ".tmp";
    {
        std::ofstream out(tmp);
        if (!out) return;  // live view is best-effort
        out << "# wfqs-live v1\n";
        out << "elapsed_s " << elapsed_seconds() << "\n";
        for (const StageSummary& s : summary())
            out << "stage " << s.name << " items " << s.items << "\n";
        for (const auto& line : live_lines_) out << line() << "\n";
        // Sparkline tails: the last few closed windows of every probe
        // (counters are per-window deltas, gauges close samples).
        constexpr std::size_t kTail = 32;
        const std::size_t n = series_.window_count();
        const std::size_t from = n > kTail ? n - kTail : 0;
        if (n != 0) out << "window_t " << series_.times()[n - 1] << "\n";
        for (const std::string& name : series_.counter_names()) {
            const auto& v = series_.counter_series(name);
            out << "series " << name;
            for (std::size_t i = from; i < n; ++i) out << " " << v[i];
            out << "\n";
        }
        for (const std::string& name : series_.gauge_names()) {
            const auto& v = series_.gauge_series(name);
            out << "series " << name;
            for (std::size_t i = from; i < n; ++i) out << " " << v[i];
            out << "\n";
        }
    }
    std::rename(tmp.c_str(), live_path_.c_str());
}

}  // namespace wfqs::obs
