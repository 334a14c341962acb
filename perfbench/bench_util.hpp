// Shared plumbing of the repository benchmark: host clock, block series
// summarised over CPU-rotating time slices, per-call timers, the in-memory
// span log with self-time attribution, the result report (human lines,
// determinism digest, final JSON line), and counter-based input hashing.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/// Counter-based generator: input i of a stream is a pure function of
/// (seed, i), so long op streams need no stored input array.
inline std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/// FNV-1a over 64-bit words: the departure / pop-sequence fingerprints.
struct Fingerprint {
    std::uint64_t h = 0xCBF29CE484222325ULL;
    void add(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 0x100000001B3ULL;
        }
    }
    std::string hex() const {
        char buf[20];
        std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
        return buf;
    }
};

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;  ///< tiny inputs: checks names and correctness only
    std::string trace_dir = ".bench_build/trace";
};

/// Quantile by nearest rank (q in [0, 1]); 0 when empty. Reorders `v`.
inline double quantile(std::vector<double>& v, double q) {
    if (v.empty()) return 0.0;
    auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size()));
    if (rank >= v.size()) rank = v.size() - 1;
    std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
    return v[rank];
}

/// Host time per unit of work, one sample per block of consecutive units,
/// summarised per window (a Slicer closes one per time slice; a window
/// holds at least kMinWindowBlocks blocks, so its p99 has ten beyond it).
/// The run's p50/p99 is the 5th percentile over its windows of each
/// window's block median/p99: other tenants of a shared host slow single
/// CPUs for seconds at a time, and the low percentile over slices spread
/// across CPUs keeps those slices from setting the figure.
class BlockSeries {
public:
    static constexpr std::size_t kMinWindowBlocks = 1000;

    BlockSeries() { window_.reserve(std::size_t{1} << 15); }

    void add(std::uint64_t block_ns, double units) {
        if (units <= 0) return;
        window_.push_back(static_cast<double>(block_ns) / units);
        total_ns_ += static_cast<double>(block_ns);
        total_units_ += units;
        ++blocks_;
    }
    /// Close the current window unless it is still too small for a p99.
    void end_window() {
        if (window_.size() < kMinWindowBlocks) return;
        p50s_.push_back(quantile(window_, 0.5));
        p99s_.push_back(quantile(window_, 0.99));
        window_.clear();
    }
    std::size_t count() const { return blocks_; }
    std::size_t windows() const { return p50s_.size(); }
    double p50() const { return summary(p50s_, 0.5); }
    double p99() const { return summary(p99s_, 0.99); }
    /// Total time over total units (the traced/untraced overhead base).
    double mean() const { return total_units_ > 0 ? total_ns_ / total_units_ : 0.0; }

private:
    /// Over closed windows; a run too short to close one (smoke inputs)
    /// falls back to the open window's own quantile.
    double summary(const std::vector<double>& per_window, double q) const {
        std::vector<double> v = per_window.empty() ? window_ : per_window;
        return quantile(v, per_window.empty() ? q : 0.05);
    }

    std::vector<double> window_;
    std::vector<double> p50s_;
    std::vector<double> p99s_;
    std::size_t blocks_ = 0;
    double total_ns_ = 0;
    double total_units_ = 0;
};

/// Cuts a measurement into time slices. At each slice boundary it closes
/// a window in every series, pauses for `gap_s` (so one run's slices
/// sample a longer stretch of the host's load), and moves the (single)
/// benchmark thread to the next CPU it may run on. The destructor
/// restores the original CPU mask.
class Slicer {
public:
    Slicer(double slice_s, double gap_s, std::vector<BlockSeries*> series);
    ~Slicer();
    Slicer(const Slicer&) = delete;
    Slicer& operator=(const Slicer&) = delete;

    /// Call between blocks or passes.
    void tick() {
        if (now_ns() - start_ >= slice_ns_) next_slice();
    }
    /// Close the last slice's windows.
    void finish();

private:
    void next_slice();
    void pin_next();

    std::uint64_t slice_ns_;
    double gap_s_;
    std::vector<BlockSeries*> series_;
    std::vector<int> cpus_;
    std::vector<unsigned char> original_;  ///< cpu_set_t bytes
    std::size_t next_cpu_ = 0;
    std::uint64_t start_ = 0;
};

/// Runs passes of two backends until each ran twice and `budget_s` of
/// measured time is spent. The backend with less measured time goes next,
/// so slow drift lands on both; the slicer ticks between passes. Each
/// pass returns its measured seconds. Returns the pass counts.
template <class ModelPass, class FfsPass>
std::pair<int, int> alternate(double budget_s, Slicer& slicer, ModelPass&& model_pass,
                              FfsPass&& ffs_pass) {
    double model_s = 0, ffs_s = 0;
    int model_passes = 0, ffs_passes = 0;
    while (model_passes < 2 || ffs_passes < 2 || model_s + ffs_s < budget_s) {
        if (model_s <= ffs_s) {
            model_s += model_pass();
            ++model_passes;
        } else {
            ffs_s += ffs_pass();
            ++ffs_passes;
        }
        slicer.tick();
    }
    slicer.finish();
    return {model_passes, ffs_passes};
}

/// "<label> blocks of <n> <unit>: model=B in W windows, ffs=... (passes m/f)"
std::string blocks_note(const std::string& label, std::size_t block, const char* unit,
                        const BlockSeries& model, const BlockSeries& ffs,
                        std::pair<int, int> passes = {0, 0});

/// Median of a sample vector (copied; callers keep their order).
inline double median(std::vector<double> v) { return quantile(v, 0.5); }

/// Median cost of one now_ns() bracket: subtracted from per-call
/// bracketed timings so they report the call, not the clock reads.
inline double clock_overhead_ns() {
    std::vector<double> d;
    d.reserve(4096);
    for (int i = 0; i < 4096; ++i) {
        const std::uint64_t a = now_ns();
        const std::uint64_t b = now_ns();
        d.push_back(static_cast<double>(b - a));
    }
    return median(d);
}

/// Bracketed per-call samples with the clock-read overhead removed.
class CallTimer {
public:
    explicit CallTimer(double overhead_ns) : overhead_(overhead_ns) {}
    void reserve(std::size_t n) { samples_.reserve(n); }
    void add(std::uint64_t t0, std::uint64_t t1) {
        samples_.push_back(static_cast<double>(t1 - t0));
    }
    /// Median bracket minus the calibrated clock overhead (floored at 0).
    double median_ns() const { return std::max(0.0, median(samples_) - overhead_); }

private:
    double overhead_;
    std::vector<double> samples_;
};

/// In-memory span log (benchmark-side tracing). Spans nest through an
/// open-span stack; self time is a span's duration minus the part of its
/// interval its children cover.
class SpanLog {
public:
    struct Span {
        std::uint64_t start = 0;
        std::uint64_t end = 0;
        std::uint64_t pkt = 0;  ///< shared id of one packet's spans (sim)
        std::int32_t parent = -1;
        std::uint16_t name = 0;
    };

    explicit SpanLog(std::vector<std::string> names) : names_(std::move(names)) {}

    void reserve(std::size_t n) { spans_.reserve(n); }

    std::int32_t open(std::uint16_t name, std::uint64_t pkt = 0) {
        const auto idx = static_cast<std::int32_t>(spans_.size());
        spans_.push_back(Span{now_ns(), 0, pkt, current_, name});
        current_ = idx;
        return idx;
    }
    void close(std::int32_t idx) {
        spans_[static_cast<std::size_t>(idx)].end = now_ns();
        current_ = spans_[static_cast<std::size_t>(idx)].parent;
    }
    /// Packet id of the innermost open span (0 at the root).
    std::uint64_t current_pkt() const {
        return current_ < 0 ? 0 : spans_[static_cast<std::size_t>(current_)].pkt;
    }
    /// Stamp `pkt` on span `idx` and every span opened after it (its
    /// children): a dequeue learns its packet only when it returns.
    void set_pkt_from(std::int32_t idx, std::uint64_t pkt) {
        for (auto i = static_cast<std::size_t>(idx); i < spans_.size(); ++i) spans_[i].pkt = pkt;
    }

    /// Self time of every span, in recording order.
    std::vector<std::uint64_t> self_times() const;
    /// Sum of self times per name id.
    std::vector<std::uint64_t> self_by_name() const;
    /// Median duration of the spans with this name.
    double median_duration(std::uint16_t name) const;
    std::uint64_t count(std::uint16_t name) const;
    /// Sum of the durations of root spans (no parent).
    std::uint64_t root_total() const;

    /// Append the first `max_rows` spans to `dir`/`file` (created if
    /// missing) as tab-separated rows (label, name, start, end, parent,
    /// pkt); false when the file cannot be written.
    bool write(const std::string& dir, const std::string& file, const std::string& label,
               std::size_t max_rows = 200'000) const;

private:
    std::vector<std::string> names_;
    std::vector<Span> spans_;
    std::int32_t current_ = -1;
};

/// Closure check of a traced phase: |Σ self + unattributed − total| / total,
/// where unattributed is the wall time outside every root span.
double closure_error(const SpanLog& log, std::uint64_t wall_ns);

/// One benchmark result: named metrics with units, the deterministic
/// digest (modeled metrics, counts, fingerprints), and the op tallies.
struct MetricDef {
    const char* name;
    const char* unit;
};

class Report {
public:
    /// Record a metric value by name; print() emits them in the order and
    /// with the units of the canonical list it is given.
    void set(const std::string& name, double value) { values_[name] = value; }
    bool has(const std::string& name) const { return values_.count(name) != 0; }
    double get(const std::string& name) const { return values_.at(name); }
    /// A line that must repeat byte for byte across runs with one seed.
    void digest(const std::string& line) { digest_.push_back(line); }
    void note(const std::string& line) { notes_.push_back(line); }
    void attempt(std::uint64_t n) { attempted_ += n; }
    /// A failed op or check: counted, and named on stderr.
    void fail(const std::string& why, std::uint64_t n = 1);

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    bool correct() const { return correct_; }

    /// Notes, digest and metric lines, then the result JSON as the last
    /// line of stdout, holding exactly the metrics of `defs`. A metric in
    /// `defs` that the workload did not set is printed as 0 when
    /// `absent_is_zero` (a layer this workload does not run); otherwise it
    /// is a failed check.
    void print(const std::vector<MetricDef>& defs, bool absent_is_zero);

private:
    std::map<std::string, double> values_;
    std::vector<std::string> digest_;
    std::vector<std::string> notes_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool correct_ = true;
};

double peak_rss_mb();

/// Fixed-precision rendering for digest lines (exact repeatable text).
std::string fmt(double v, int precision = 6);

}  // namespace perfbench
