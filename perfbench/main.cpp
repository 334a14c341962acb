// The repository benchmark's program: one workload per process, single
// threaded.
//
//   perfbench --workload <sim_wfq_10g|sorter_paper12|sorter_wide32_1m>
//             --seed <n> --seconds <s> --trace <0|1> [--smoke]
//
// Prints human lines, the determinism digest ("digest ..." lines that
// must repeat byte for byte for one seed), and as the last stdout line
// one JSON object {correct, attempted, failed, metrics}: every
// end-to-end metric with --trace 0, every per-layer metric with
// --trace 1. Exits non-zero when a check fails.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <sim_wfq_10g|sorter_paper12|"
                 "sorter_wide32_1m> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n",
                 why);
    std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                opt.workload = value();
            else if (a == "--seed")
                opt.seed = std::stoull(value());
            else if (a == "--seconds")
                opt.seconds = std::stod(value());
            else if (a == "--trace")
                opt.trace = std::stoi(value()) != 0;
            else if (a == "--smoke")
                opt.smoke = true;
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error&) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (opt.workload.empty()) usage("--workload is required");
    if (!(opt.seconds > 0 && opt.seconds <= 600)) usage("--seconds must be in (0, 600]");
    return opt;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace perfbench;
    const Options opt = parse(argc, argv);
    Report rep;
    if (opt.trace) {
        std::error_code ec;
        std::filesystem::remove(opt.trace_dir + "/" + opt.workload + ".tsv", ec);
    }
    try {
        if (opt.workload == "sim_wfq_10g")
            run_sim_wfq_10g(opt, rep);
        else if (opt.workload == "sorter_paper12")
            run_sorter_paper12(opt, rep);
        else if (opt.workload == "sorter_wide32_1m")
            run_sorter_wide32(opt, rep);
        else
            usage(("unknown workload " + opt.workload).c_str());
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    if (opt.trace) {
        if (!rep.has("trace.closure_error"))
            rep.fail("traced run produced no closure figure");
        else if (rep.get("trace.closure_error") > kClosureTolerance)
            rep.fail("span self times do not add up to wall time: trace.closure_error " +
                     fmt(rep.get("trace.closure_error"), 9) + " > tolerance " +
                     fmt(kClosureTolerance, 9));
        rep.set("fail_ratio", rep.attempted() ? static_cast<double>(rep.failed()) /
                                                    static_cast<double>(rep.attempted())
                                              : 0.0);
        rep.set("ops_attempted", static_cast<double>(rep.attempted()));
        rep.set("ops_failed", static_cast<double>(rep.failed()));
    }
    rep.print(opt.trace ? per_layer_metrics() : end_to_end_metrics(), opt.trace);
    return rep.correct() ? 0 : 1;
}
