#include "bench_util.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace perfbench {

std::vector<std::uint64_t> SpanLog::self_times() const {
    const std::size_t n = spans_.size();
    std::vector<std::uint64_t> covered(n, 0);
    std::vector<std::uint64_t> last_end(n, 0);
    // Children are appended in start order, so one sweep keeps the union
    // of each parent's covered interval: overlapping siblings or a child
    // escaping its parent cannot be double-credited.
    for (std::size_t i = 0; i < n; ++i) {
        const Span& s = spans_[i];
        if (s.parent < 0) continue;
        const auto p = static_cast<std::size_t>(s.parent);
        const Span& ps = spans_[p];
        const std::uint64_t lo = std::max({s.start, ps.start, last_end[p]});
        const std::uint64_t hi = std::min(s.end, ps.end);
        if (hi > lo) {
            covered[p] += hi - lo;
            last_end[p] = hi;
        }
    }
    std::vector<std::uint64_t> self(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t dur = spans_[i].end - spans_[i].start;
        self[i] = dur - std::min(dur, covered[i]);
    }
    return self;
}

std::vector<std::uint64_t> SpanLog::self_by_name() const {
    std::vector<std::uint64_t> out(names_.size(), 0);
    const auto self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) out[spans_[i].name] += self[i];
    return out;
}

double SpanLog::median_duration(std::uint16_t name) const {
    std::vector<double> d;
    for (const Span& s : spans_)
        if (s.name == name) d.push_back(static_cast<double>(s.end - s.start));
    return median(std::move(d));
}

std::uint64_t SpanLog::count(std::uint16_t name) const {
    std::uint64_t n = 0;
    for (const Span& s : spans_) n += s.name == name;
    return n;
}

std::uint64_t SpanLog::root_total() const {
    std::uint64_t total = 0;
    for (const Span& s : spans_)
        if (s.parent < 0) total += s.end - s.start;
    return total;
}

bool SpanLog::write(const std::string& dir, const std::string& file, const std::string& label,
                    std::size_t max_rows) const {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    std::ofstream out(dir + "/" + file, std::ios::app);
    if (!out) return false;
    for (std::size_t i = 0; i < std::min(max_rows, spans_.size()); ++i) {
        const Span& s = spans_[i];
        out << label << '\t' << names_[s.name] << '\t' << s.start << '\t' << s.end
            << '\t' << s.parent << '\t' << s.pkt << '\n';
    }
    return static_cast<bool>(out);
}

double closure_error(const SpanLog& log, std::uint64_t wall_ns) {
    if (wall_ns == 0) return 1.0;
    std::uint64_t self_sum = 0;
    for (const std::uint64_t s : log.self_times()) self_sum += s;
    const double unattributed =
        static_cast<double>(wall_ns) - static_cast<double>(log.root_total());
    return std::abs(static_cast<double>(self_sum) + unattributed -
                    static_cast<double>(wall_ns)) /
           static_cast<double>(wall_ns);
}

void Report::fail(const std::string& why, std::uint64_t n) {
    failed_ += n;
    correct_ = false;
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s (%llu)\n", why.c_str(),
                 static_cast<unsigned long long>(n));
}

void Report::print(const std::vector<MetricDef>& defs, bool absent_is_zero) {
    for (const MetricDef& d : defs)
        if (!has(d.name)) {
            if (!absent_is_zero) fail(std::string("metric not measured: ") + d.name);
            values_[d.name] = 0.0;
        }
    for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
    for (const auto& d : digest_) std::printf("digest %s\n", d.c_str());
    for (const MetricDef& d : defs)
        std::printf("metric %-40s %.6g %s\n", d.name, values_[d.name], d.unit);
    std::string json = "{\"correct\": ";
    json += correct_ ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < defs.size(); ++i) {
        const double v = values_[defs[i].name];
        std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
        if (i) json += ", ";
        json += std::string("\"") + defs[i].name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + defs[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

Slicer::Slicer(double slice_s, double gap_s, std::vector<BlockSeries*> series)
    : slice_ns_(static_cast<std::uint64_t>(slice_s * 1e9)),
      gap_s_(gap_s),
      series_(std::move(series)) {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
        original_.assign(reinterpret_cast<unsigned char*>(&set),
                         reinterpret_cast<unsigned char*>(&set) + sizeof set);
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
    pin_next();
    start_ = now_ns();
}

Slicer::~Slicer() {
    if (original_.size() == sizeof(cpu_set_t)) {
        cpu_set_t set;
        std::memcpy(&set, original_.data(), sizeof set);
        sched_setaffinity(0, sizeof set, &set);
    }
}

void Slicer::pin_next() {
    if (cpus_.empty()) return;  // no mask to rotate over: stay where the OS puts us
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
}

void Slicer::next_slice() {
    for (BlockSeries* s : series_) s->end_window();
    std::this_thread::sleep_for(std::chrono::duration<double>(gap_s_));
    pin_next();
    start_ = now_ns();
}

void Slicer::finish() {
    for (BlockSeries* s : series_) s->end_window();
}

std::string blocks_note(const std::string& label, std::size_t block, const char* unit,
                        const BlockSeries& model, const BlockSeries& ffs,
                        std::pair<int, int> passes) {
    std::string note = label + " blocks of " + std::to_string(block) + " " + unit +
                       ": model=" + std::to_string(model.count()) + " in " +
                       std::to_string(model.windows()) + " windows, ffs=" +
                       std::to_string(ffs.count()) + " in " + std::to_string(ffs.windows()) +
                       " windows";
    if (passes.first > 0)
        note += " (passes " + std::to_string(passes.first) + "/" +
                std::to_string(passes.second) + ")";
    return note;
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string fmt(double v, int precision) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", precision, v);
    return buf;
}

}  // namespace perfbench
