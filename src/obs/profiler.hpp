// HostProfiler: a wall-clock probe sampler for a running bench, built on
// TimeSeries, plus the live status file wfqs_top polls.
//
// The model. The simulation driver reports two stages — gen (packets
// offered) and sched (packets served). Each stage owns a StageCounters
// block: one relaxed atomic item count that the driver bumps per flushed
// block and the profiler's sampler thread reads concurrently — TSan-clean
// by construction. Host time per layer is perfbench's traced ledger, not
// this class's job.
//
// Sampling. start_sampling() launches a wall-clock sampler thread that
// ticks an internal TimeSeries (budgeted, self-downsampling) over the
// registered probes — per-stage item counters plus any gauges and
// counters the caller adds — and optionally rewrites a live status file
// (`# wfqs-live v1`, tmp+rename) that wfqs_top polls.
// Probes must be registered before start_sampling(); sampling must stop
// before anything a probe reads is destroyed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "obs/timeseries.hpp"

namespace wfqs::obs {

class JsonWriter;

class HostProfiler {
public:
    enum class Stage : std::uint8_t { kGen, kSched };
    static constexpr std::size_t kStageCount = 2;
    static const char* stage_name(Stage s);

    /// Per-stage item tally, sampled cross-thread. Updates are relaxed
    /// fetch_adds — the writer touches it per flushed block of items,
    /// never per item, so the RMW cost is noise. Readers see slightly
    /// stale but untorn values.
    class StageCounters {
    public:
        void add_items(std::uint64_t n) {
            items_.fetch_add(n, std::memory_order_relaxed);
        }
        std::uint64_t items() const { return items_.load(std::memory_order_relaxed); }

    private:
        std::atomic<std::uint64_t> items_{0};
    };

    struct StageSummary {
        const char* name;
        std::uint64_t items;
    };

    /// `budget`: TimeSeries window budget; `period`: sampler tick period.
    explicit HostProfiler(std::size_t budget = 256,
                          std::chrono::milliseconds period =
                              std::chrono::milliseconds(1));
    ~HostProfiler();

    HostProfiler(const HostProfiler&) = delete;
    HostProfiler& operator=(const HostProfiler&) = delete;

    // -- stage wiring (driver side) ---------------------------------------
    StageCounters& stage(Stage s) { return stages_[static_cast<std::size_t>(s)]; }
    const StageCounters& stage(Stage s) const {
        return stages_[static_cast<std::size_t>(s)];
    }

    /// Extra probes (occupancies, throughput counters). Register before
    /// start_sampling(); what `fn` reads must outlive sampling.
    void add_gauge(const std::string& name, std::function<double()> fn);
    void add_counter(const std::string& name, std::function<std::uint64_t()> fn);

    // -- run lifecycle -----------------------------------------------------
    /// Mark the measured interval. start_sampling()/stop_sampling() call
    /// these implicitly; call directly when running without a sampler.
    void begin_run();
    void end_run();

    /// Launch the sampler thread: per-stage item probes (registered
    /// on first start) plus everything added above, ticked every period.
    void start_sampling();
    void stop_sampling();
    bool sampling() const { return sampler_.joinable(); }

    /// Live status file for wfqs_top (written tmp+rename every tick
    /// while sampling, and once more by stop_sampling()). Set before
    /// start_sampling(); empty disables.
    void set_live_path(const std::string& path) { live_path_ = path; }

    /// Append one extra line to every live status write — e.g. the
    /// reshard soak's per-bank `bank <i> state <s> occ <n> ...` rows.
    /// The callback runs on the sampler thread (and on the caller's in
    /// stop_sampling()), so whatever it reads must be safe to read
    /// concurrently; register before start_sampling().
    void add_live_line(std::function<std::string()> fn) {
        live_lines_.push_back(std::move(fn));
    }

    // -- results (read after end_run/stop_sampling) ------------------------
    double elapsed_seconds() const;
    std::vector<StageSummary> summary() const;
    const TimeSeries& series() const { return series_; }

    /// {"elapsed_s":..,"stages":[{"name":..,"items":..}],
    ///  "timeseries":{...}}
    void write_json(JsonWriter& w) const;
    /// Human-readable per-stage item table.
    std::string to_table() const;

private:
    void register_stage_probes();
    void sampler_loop();
    void write_live() const;

    StageCounters stages_[kStageCount];
    TimeSeries series_;
    std::chrono::milliseconds period_;
    std::string live_path_;
    std::vector<std::function<std::string()>> live_lines_;
    bool probes_registered_ = false;
    std::chrono::steady_clock::time_point t0_;
    std::chrono::steady_clock::time_point t1_;
    bool began_ = false, ended_ = false;
    std::thread sampler_;
    std::atomic<bool> stop_{false};
};

}  // namespace wfqs::obs
