// Machine-readable export for the bench binaries.
//
// Every bench keeps printing its human-readable tables, and additionally
// accepts
//
//     <bench> --json <path>        (also --json=<path>)
//     WFQS_METRICS_JSON=<path>     (env; a directory — trailing '/' or an
//                                   existing dir — expands to
//                                   <dir>/BENCH_<name>.json)
//
// to write its MetricsRegistry snapshot as JSON. The emitted document is
//
//     {"bench": <name>, "schema": 1, "metrics": {counters, gauges,
//      histograms}}
//
// with sorted metric names, so committed BENCH_*.json artifacts diff
// cleanly between runs and feed the perf trajectory.
// Benches additionally accept
//
//     <bench> --seed <n>           (also --seed=<n>)
//     WFQS_SEED=<n>                (env; the flag wins)
//
// to shift every RNG seeding site in the bench while keeping distinct
// sites distinct (see BenchReporter::seed). The resolved seed of the
// first site is exported as a top-level "seed" field so every committed
// artifact records how to reproduce it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "obs/metrics.hpp"

namespace wfqs::obs {

/// Resolve the export path from argv/env as described above; nullopt
/// means "no export requested".
std::optional<std::string> bench_json_path(const std::string& bench_name,
                                           int argc, char** argv);

/// Resolve the seed override from `--seed <n>` / `--seed=<n>` / WFQS_SEED;
/// nullopt means "use each site's default".
std::optional<std::uint64_t> bench_seed_override(int argc, char** argv);

/// Resolve the sorter backend from `--backend model|ffs` / `--backend=` /
/// WFQS_BACKEND (flag wins). Returns the backend *name*; "model" when
/// nothing is requested; anything else is rejected. bench_io stays
/// layering-clean (obs does not include baselines) — benches map the
/// name through baselines::backend_from_name.
std::string bench_backend(int argc, char** argv);

/// The one-liner benches use: registry + "did the run ask for JSON?".
/// finish() exports if a path was requested and reports where.
class BenchReporter {
public:
    BenchReporter(std::string bench_name, int argc, char** argv)
        : name_(std::move(bench_name)),
          path_(bench_json_path(name_, argc, argv)),
          seed_override_(bench_seed_override(argc, argv)) {}

    MetricsRegistry& registry() { return registry_; }
    const std::optional<std::string>& path() const { return path_; }

    /// Resolve the seed for one RNG seeding site. Without an override the
    /// site keeps its historical default (committed artifacts stay
    /// byte-identical); with `--seed N` the site becomes `N + site_default`
    /// so a bench with several sites still seeds them distinctly. The
    /// exported "seed" field records the override (what --seed must be
    /// passed to reproduce the run), or the first site default when the
    /// run used the defaults.
    std::uint64_t seed(std::uint64_t site_default) {
        if (!seed_) seed_ = seed_override_ ? *seed_override_ : site_default;
        return seed_override_ ? *seed_override_ + site_default : site_default;
    }

    /// Record which sorter backend the run used; exported as a top-level
    /// "backend" string in the JSON document so every committed artifact
    /// says what produced its host-side numbers.
    void record_backend(std::string backend) { backend_ = std::move(backend); }

    /// Write the snapshot document (if requested) and print a one-line
    /// note to stdout. The only writer of the document described above:
    /// a resolved seed and a recorded backend become top-level fields.
    void finish();

private:
    std::string name_;
    std::optional<std::string> path_;
    std::optional<std::uint64_t> seed_override_;
    std::optional<std::uint64_t> seed_;
    std::string backend_;
    MetricsRegistry registry_;
};

}  // namespace wfqs::obs
