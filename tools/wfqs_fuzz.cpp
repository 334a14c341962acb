// wfqs_fuzz: the standalone conformance fuzzer.
//
// Drives randomized op sequences (and randomized scheduler workloads)
// through every standard sorter configuration, differentially checked
// against the golden models of src/ref. On a divergence the failing
// sequence is shrunk to a minimal reproducer and written as a replayable
// `.ops` artifact; the printed command line replays it.
//
//   wfqs_fuzz --minutes 10 --seed 7            # time-budgeted soak
//   wfqs_fuzz --cases 200 --ops 5000           # fixed-size run
//   wfqs_fuzz --target matcher                 # one family only
//   wfqs_fuzz --threads 4 --minutes 5          # parallel soak (N workers)
//   wfqs_fuzz --replay tests/corpus/foo.ops    # replay an artifact
//   wfqs_fuzz --flight crash.ops --minutes 5   # post-mortem flight dump
//
// --flight PATH arms the flight recorder: on a divergence the minimized
// reproducer is recorded into the ring with a divergence marker and
// dumped to PATH as an annotated, replayable `.ops` artifact (crash and
// terminate paths dump whatever the ring holds). Flight dumps from any
// source — including bench/fault_soak --flight — replay here via
// --replay, since parse_ops skips the `# ev` annotation lines.
//
// --threads N runs N soak workers over decorrelated round numbers; the
// first divergence stops every worker. Each differential harness is
// self-contained (own Simulation, own reference), so workers share
// nothing but the atomic op counter and the failure latch.
//
// Exit code: 0 = no divergence, 1 = divergence found, 2 = usage error.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "baselines/factory.hpp"
#include "matcher/matcher.hpp"
#include "obs/flight_recorder.hpp"
#include "proptest/differ.hpp"
#include "proptest/proptest.hpp"

namespace {

using namespace wfqs;
using namespace wfqs::proptest;

struct Options {
    std::uint64_t seed = 1;
    std::size_t ops = 5000;        ///< ops per generated case
    std::size_t cases = 0;         ///< 0 = unbounded (budget-limited)
    double minutes = 1.0;          ///< wall-clock budget; 0 = unbounded
    unsigned threads = 1;          ///< soak workers
    std::string target = "all";    ///< tag|ffs|geometry|sharded|baseline|matcher|scheduler|policy|all
    std::string artifact_dir = ".";
    std::string replay;            ///< replay one .ops file instead of fuzzing
    std::string flight;            ///< flight-recorder dump path ("" = off)
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seed N] [--ops N] [--cases N] [--minutes F]\n"
                 "          [--threads N]\n"
                 "          [--target tag|ffs|geometry|sharded|baseline|matcher|"
                 "scheduler|policy|all]\n"
                 "          [--artifact-dir DIR] [--replay FILE.ops]\n"
                 "          [--flight DUMP.ops]\n",
                 argv0);
    std::exit(2);
}

Options parse_args(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--seed") opt.seed = std::strtoull(value().c_str(), nullptr, 0);
        else if (arg == "--ops") opt.ops = std::strtoull(value().c_str(), nullptr, 0);
        else if (arg == "--cases") opt.cases = std::strtoull(value().c_str(), nullptr, 0);
        else if (arg == "--minutes") opt.minutes = std::strtod(value().c_str(), nullptr);
        else if (arg == "--threads")
            opt.threads = static_cast<unsigned>(std::strtoul(value().c_str(), nullptr, 0));
        else if (arg == "--target") opt.target = value();
        else if (arg == "--artifact-dir") opt.artifact_dir = value();
        else if (arg == "--replay") opt.replay = value();
        else if (arg == "--flight") opt.flight = value();
        else usage(argv[0]);
    }
    if (opt.target != "all" && opt.target != "tag" && opt.target != "ffs" &&
        opt.target != "geometry" && opt.target != "sharded" &&
        opt.target != "baseline" && opt.target != "matcher" &&
        opt.target != "scheduler" && opt.target != "policy")
        usage(argv[0]);
    if (opt.threads == 0) opt.threads = 1;
    return opt;
}

struct Budget {
    std::chrono::steady_clock::time_point start = std::chrono::steady_clock::now();
    double minutes;
    bool expired() const {
        if (minutes <= 0) return false;
        const auto elapsed = std::chrono::steady_clock::now() - start;
        return std::chrono::duration<double>(elapsed).count() >= minutes * 60.0;
    }
};

std::atomic<std::uint64_t> g_total_ops{0};
std::mutex g_print_mutex;  ///< serializes failure reports across workers
std::string g_flight_path;  ///< set once in main before workers start

/// With --flight: push the minimized reproducer into the flight ring (op
/// events replay verbatim), mark the divergence, and dump. The recorder
/// serializes internally, so concurrent workers can land here safely.
void flight_dump_failure(const std::string& name, const OpSeq& ops,
                         const std::string& message) {
    obs::FlightRecorder* rec = obs::FlightRecorder::current();
    if (rec == nullptr) return;
    double t = 0.0;
    for (const Op& op : ops) {
        switch (op.kind) {
            case OpKind::kInsert:
                obs::flight_record(obs::FlightEventKind::kInsert, t, op.delta);
                break;
            case OpKind::kPop:
                obs::flight_record(obs::FlightEventKind::kPop, t);
                break;
            case OpKind::kCombined:
                obs::flight_record(obs::FlightEventKind::kCombined, t, op.delta);
                break;
            case OpKind::kAddBank:
                obs::flight_record(obs::FlightEventKind::kReshard, t, 0);
                break;
            case OpKind::kRemoveBank:
                obs::flight_record(obs::FlightEventKind::kReshard, t, 1, op.delta);
                break;
            case OpKind::kPumpMigration:
                obs::flight_record(obs::FlightEventKind::kReshard, t, 3, op.delta);
                break;
        }
        t += 1.0;
    }
    obs::flight_record(obs::FlightEventKind::kDivergence, t,
                       static_cast<std::int64_t>(ops.size()));
    rec->dump_to_file(g_flight_path, name + " divergence\n" + message +
                                         "\nreplay: wfqs_fuzz --replay " +
                                         g_flight_path);
}

/// One fuzz pass of a config over an explicit profile list; returns
/// false on divergence.
bool fuzz_profiles_config(const std::string& name, const CheckFn& check,
                          std::vector<GenProfile> profiles, const Options& opt,
                          std::uint64_t round) {
    RunConfig cfg;
    cfg.seed = case_seed(opt.seed, round * 1000003);
    cfg.ops_per_case = opt.ops;
    cfg.profiles = std::move(profiles);
    cfg.cases = cfg.profiles.size();  // one case per profile per round
    cfg.artifact_dir = opt.artifact_dir;
    cfg.artifact_stem = name;
    const auto failure = run_property(cfg, check);
    g_total_ops += cfg.cases * cfg.ops_per_case;
    if (!failure) return true;
    const std::lock_guard<std::mutex> lock(g_print_mutex);
    std::printf("FAIL %s: %s\n", name.c_str(), failure->message.c_str());
    std::printf("  profile %s, case seed %llu, minimized %zu ops (from %zu)\n",
                failure->profile.c_str(),
                static_cast<unsigned long long>(failure->seed), failure->ops.size(),
                failure->original_size);
    std::printf("  artifact: %s\n  replay:   wfqs_fuzz --replay %s\n",
                failure->artifact_path.c_str(), failure->artifact_path.c_str());
    flight_dump_failure(name, failure->ops, failure->message);
    return false;
}

/// One fuzz pass of a sorter family config; returns false on divergence.
/// `extra` appends target-specific profiles beyond the standard five
/// (the sharded target adds reshard churn, which only its hook executes).
bool fuzz_sorter_config(const std::string& name, const CheckFn& check,
                        std::uint64_t span, const Options& opt,
                        std::uint64_t round,
                        const std::vector<GenProfile>& extra = {}) {
    std::vector<GenProfile> profiles = all_profiles(span);
    for (const GenProfile& p : extra) profiles.push_back(p);
    return fuzz_profiles_config(name, check, std::move(profiles), opt, round);
}

bool fuzz_tag(const Options& opt, std::uint64_t round) {
    for (const auto& entry : standard_tag_configs()) {
        hw::Simulation probe_sim;
        const std::uint64_t span =
            core::TagSorter(entry.config, probe_sim).window_span();
        const CheckFn check = [&](const OpSeq& ops) {
            return diff_tag_sorter(ops, entry.config);
        };
        if (!fuzz_sorter_config("tag-" + entry.name, check, span, opt, round))
            return false;
    }
    // The netlist engines on the paper geometry (slower: gate-level).
    for (const matcher::MatcherKind kind : matcher::all_matcher_kinds()) {
        matcher::NetlistMatcher engine(kind);
        core::TagSorter::Config config;
        const CheckFn check = [&](const OpSeq& ops) {
            return diff_tag_sorter(ops, config, &engine);
        };
        hw::Simulation probe_sim;
        const std::uint64_t span = core::TagSorter(config, probe_sim).window_span();
        if (!fuzz_sorter_config("tag-netlist-" + engine.name(), check, span, opt,
                                round))
            return false;
    }
    return true;
}

/// The host-native backend in three-way lockstep: RefSorter arbitrates
/// while TagSorter and FfsSorter both execute every op, with cross-checks
/// (state + full stats parity) at every step. Spans come from the ffs
/// instance itself — identical to the model's by construction, but this
/// way a window-math divergence shows up as a differ failure, not a
/// generator mismatch.
bool fuzz_ffs(const Options& opt, std::uint64_t round) {
    for (const auto& entry : standard_tag_configs()) {
        const std::uint64_t span = core::FfsSorter(entry.config).window_span();
        const CheckFn check = [&](const OpSeq& ops) {
            return diff_ffs_sorter(ops, entry.config);
        };
        if (!fuzz_sorter_config("ffs-" + entry.name, check, span, opt, round))
            return false;
    }
    return true;
}

/// Geometry soak: only the wide/tiered rows of the standard matrix (tag
/// spaces beyond the paper's 12 bits), through both the cycle-level model
/// and the host-native backend. The standard profiles already scale to
/// each row's window span; seam-rider runs twice per round because the
/// physical wrap seam is the whole point of this target.
bool fuzz_geometry(const Options& opt, std::uint64_t round) {
    for (const auto& entry : standard_tag_configs()) {
        const bool wide = entry.config.geometry.tag_bits() >
                              tree::TreeGeometry::paper().tag_bits() ||
                          entry.config.tiered_table.value_or(false);
        if (!wide) continue;
        hw::Simulation probe_sim;
        const std::uint64_t span =
            core::TagSorter(entry.config, probe_sim).window_span();
        const CheckFn model_check = [&](const OpSeq& ops) {
            return diff_tag_sorter(ops, entry.config);
        };
        if (!fuzz_sorter_config("geometry-tag-" + entry.name, model_check, span,
                                opt, round, {seam_rider_profile(span)}))
            return false;
        const CheckFn ffs_check = [&](const OpSeq& ops) {
            return diff_ffs_sorter(ops, entry.config);
        };
        if (!fuzz_sorter_config("geometry-ffs-" + entry.name, ffs_check, span,
                                opt, round, {seam_rider_profile(span)}))
            return false;
    }
    return true;
}

bool fuzz_sharded(const Options& opt, std::uint64_t round) {
    for (const auto& entry : standard_sharded_configs()) {
        hw::Simulation probe_sim;
        const std::uint64_t bank_span =
            core::TagSorter(entry.config.bank, probe_sim).window_span();
        const CheckFn check = [&](const OpSeq& ops) {
            return diff_sharded_sorter(ops, entry.config, entry.flow_mode, {},
                                       entry.reshard);
        };
        // Profiles scale to the *bank* span: safe under both policies (the
        // aggregate window is never narrower than one bank's). Every
        // sharded row also runs the reshard-churn profile: live bank
        // add/remove and migration pumps race wrap-heavy traffic (and, on
        // the reshard row, autonomous rebalancing); interleave rows take
        // the same ops through the refusal paths.
        if (!fuzz_sorter_config("sharded-" + entry.name, check, bank_span, opt,
                                round, {reshard_churn_profile(bank_span)}))
            return false;
    }
    return true;
}

bool fuzz_baseline(const Options& opt, std::uint64_t round) {
    for (const auto& entry : standard_baseline_configs()) {
        const CheckFn check = [&](const OpSeq& ops) {
            return diff_baseline_queue(ops, entry);
        };
        if (!fuzz_sorter_config("baseline-" + entry.name, check, entry.span, opt,
                                round))
            return false;
    }
    return true;
}

/// Every rank policy × sorter geometry × backend (plus the SP-PIFO and
/// RIFO approximation mirrors) in lockstep with the src/ref rank
/// oracles. The profiles cap the backlog so every policy's live rank
/// span stays inside the narrowest sorter window in the matrix.
bool fuzz_policy(const Options& opt, std::uint64_t round) {
    for (const auto& entry : standard_policy_configs()) {
        const CheckFn check = [&](const OpSeq& ops) {
            return diff_policy_scheduler(ops, entry);
        };
        if (!fuzz_profiles_config("policy-" + entry.name, check,
                                  policy_profiles(), opt, round))
            return false;
    }
    return true;
}

bool fuzz_matcher(const Options& opt, std::uint64_t round) {
    const std::vector<unsigned> widths = {2, 3, 4, 8, 16, 24, 32, 48, 64};
    matcher::BehavioralMatcher behavioral;
    for (const unsigned width : widths) {
        const std::uint64_t seed = case_seed(opt.seed ^ width, round);
        if (auto err = diff_matcher_width(behavioral, width, 8, 2000, seed)) {
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::printf("FAIL matcher-behavioral: %s\n", err->c_str());
            return false;
        }
        g_total_ops += 2000;
        for (const matcher::MatcherKind kind : matcher::all_matcher_kinds()) {
            matcher::NetlistMatcher engine(kind);
            if (auto err = diff_matcher_width(engine, width, 8, 500, seed)) {
                const std::lock_guard<std::mutex> lock(g_print_mutex);
                std::printf("FAIL matcher-%s: %s\n", engine.name().c_str(),
                            err->c_str());
                return false;
            }
            g_total_ops += 500;
        }
    }
    return true;
}

bool fuzz_scheduler(const Options& opt, std::uint64_t round) {
    using sched_prog::RankPolicy;
    std::vector<SchedulerDiffConfig> configs(3);
    configs[2].queue = baselines::QueueKind::MultibitTree;
    configs[2].range_bits = 28;
    const RankPolicy policies[] = {RankPolicy::kWfq, RankPolicy::kWf2q, RankPolicy::kWfq};
    const char* names[] = {"wfq-heap", "wf2q-heap", "wfq-multibit"};
    for (std::size_t i = 0; i < configs.size(); ++i) {
        configs[i].seed = case_seed(opt.seed + i, round);
        if (auto err = diff_pifo_vs_gps(policies[i], configs[i])) {
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::printf("FAIL scheduler-%s (seed %llu): %s\n", names[i],
                        static_cast<unsigned long long>(configs[i].seed),
                        err->c_str());
            return false;
        }
        g_total_ops += 1000;  // rough: packets per run
    }
    return true;
}

int replay(const Options& opt) {
    OpSeq ops;
    try {
        ops = read_ops_file(opt.replay);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "wfqs_fuzz: %s\n", e.what());
        return 2;
    }
    std::printf("replaying %zu ops from %s\n", ops.size(), opt.replay.c_str());
    bool ok = true;
    for (const auto& entry : standard_tag_configs()) {
        if (auto err = diff_tag_sorter(ops, entry.config)) {
            std::printf("FAIL tag-%s: %s\n", entry.name.c_str(), err->c_str());
            ok = false;
        }
    }
    for (const auto& entry : standard_tag_configs()) {
        if (auto err = diff_ffs_sorter(ops, entry.config)) {
            std::printf("FAIL ffs-%s: %s\n", entry.name.c_str(), err->c_str());
            ok = false;
        }
    }
    for (const auto& entry : standard_sharded_configs()) {
        if (auto err = diff_sharded_sorter(ops, entry.config, entry.flow_mode, {},
                                           entry.reshard)) {
            std::printf("FAIL sharded-%s: %s\n", entry.name.c_str(), err->c_str());
            ok = false;
        }
    }
    for (const auto& entry : standard_baseline_configs()) {
        if (auto err = diff_baseline_queue(ops, entry)) {
            std::printf("FAIL baseline-%s: %s\n", entry.name.c_str(), err->c_str());
            ok = false;
        }
    }
    for (const auto& entry : standard_policy_configs()) {
        if (auto err = diff_policy_scheduler(ops, entry)) {
            std::printf("FAIL policy-%s: %s\n", entry.name.c_str(), err->c_str());
            ok = false;
        }
    }
    std::printf("%s\n", ok ? "ok: every configuration conforms" : "DIVERGENCE");
    return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    const Options opt = parse_args(argc, argv);
    if (!opt.replay.empty()) return replay(opt);

    // Armed before workers start; shared by all of them (internal mutex).
    std::optional<obs::FlightRecorder> flight;
    if (!opt.flight.empty()) {
        g_flight_path = opt.flight;
        flight.emplace(8192);
        obs::FlightRecorder::install(&*flight);
        obs::FlightRecorder::arm_crash_dump(opt.flight);
    }

    const Budget budget{std::chrono::steady_clock::now(), opt.minutes};
    const bool do_tag = opt.target == "all" || opt.target == "tag";
    const bool do_ffs = opt.target == "all" || opt.target == "ffs";
    // Not in "all": the wide rows already soak there via tag/ffs; the
    // dedicated target exists to concentrate a whole budget on them.
    const bool do_geometry = opt.target == "geometry";
    const bool do_sharded = opt.target == "all" || opt.target == "sharded";
    const bool do_baseline = opt.target == "all" || opt.target == "baseline";
    const bool do_matcher = opt.target == "all" || opt.target == "matcher";
    const bool do_scheduler = opt.target == "all" || opt.target == "scheduler";
    const bool do_policy = opt.target == "all" || opt.target == "policy";

    // One full round of every selected family at round number `round`.
    const auto run_round = [&](std::uint64_t round) {
        bool ok = true;
        if (do_tag) ok = ok && fuzz_tag(opt, round);
        if (ok && do_ffs) ok = ok && fuzz_ffs(opt, round);
        if (ok && do_geometry) ok = ok && fuzz_geometry(opt, round);
        if (ok && do_sharded) ok = ok && fuzz_sharded(opt, round);
        if (ok && do_baseline) ok = ok && fuzz_baseline(opt, round);
        if (ok && do_matcher) ok = ok && fuzz_matcher(opt, round);
        if (ok && do_scheduler) ok = ok && fuzz_scheduler(opt, round);
        if (ok && do_policy) ok = ok && fuzz_policy(opt, round);
        return ok;
    };

    // Workers interleave round numbers (worker w: w, w+N, w+2N, ...), so
    // every round that would run single-threaded runs somewhere, just in
    // parallel; the first divergence latches and stops everyone.
    std::atomic<bool> failed{false};
    std::atomic<std::uint64_t> rounds_done{0};
    const auto worker = [&](unsigned index) {
        for (std::uint64_t round = index;; round += opt.threads) {
            if (failed.load(std::memory_order_acquire)) return;
            if (budget.expired()) return;
            if (opt.cases != 0 && round >= opt.cases) return;
            if (!run_round(round)) {
                failed.store(true, std::memory_order_release);
                return;
            }
            const std::uint64_t done = ++rounds_done;
            const std::lock_guard<std::mutex> lock(g_print_mutex);
            std::printf("round %llu complete, ~%llu ops total\n",
                        static_cast<unsigned long long>(done),
                        static_cast<unsigned long long>(g_total_ops.load()));
            std::fflush(stdout);
        }
    };

    if (opt.threads <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(opt.threads);
        for (unsigned w = 0; w < opt.threads; ++w) pool.emplace_back(worker, w);
        for (auto& t : pool) t.join();
    }

    const bool ok = !failed.load();
    std::printf("%s after %llu round(s), ~%llu randomized ops\n",
                ok ? "ok: no divergence" : "DIVERGENCE FOUND",
                static_cast<unsigned long long>(rounds_done.load()),
                static_cast<unsigned long long>(g_total_ops.load()));
    return ok ? 0 : 1;
}
