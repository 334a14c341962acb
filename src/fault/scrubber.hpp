// The self-healing driver: turns a faulted sorter back into a consistent
// one, escalating as little as possible. One escalation serves both
// sorter types (TagSorter and the host-native FfsSorter):
//
//   scrub() = [relaunder ECC state →] audit → (clean | repair | rebuild)
//
// 1. *Relaunder* (TagSorter only — FfsSorter has no ECC-protected
//    memories): every protected memory corrects its correctable words
//    and makes uncorrectable ones authoritative, so the datapath cannot
//    keep throwing on a word the audit already judged.
// 2. *Audit*: the sorter's audit() cross-checks its structures.
// 3. *Repair*: when every issue is reconstructible, the sorter's
//    repair() fixes them off the datapath and a verification audit
//    confirms the result.
// 4. *Rebuild*: anything else drains the salvageable entries and
//    re-sorts them (rebuild()); packets whose tags were destroyed are
//    lost and counted, never silently reordered.
//
// The scrubber is stateless between calls except for its tallies, so one
// instance can serve a long soak or be constructed per recovery.
#pragma once

#include <cstdint>
#include <string>

namespace wfqs::core {
class TagSorter;
class FfsSorter;
}
namespace wfqs::obs {
class MetricsRegistry;
}

namespace wfqs::fault {

enum class ScrubAction {
    kClean,     ///< audit found nothing to do
    kRepaired,  ///< targeted repair, verified by a second audit
    kRebuilt,   ///< drain-and-resort fallback
};

const char* to_string(ScrubAction action);

struct ScrubOutcome {
    ScrubAction action = ScrubAction::kClean;
    std::size_t issues = 0;        ///< audit issues that triggered the action
    std::size_t entries_lost = 0;  ///< entries a rebuild could not salvage
};

struct ScrubberStats {
    std::uint64_t scrubs = 0;
    std::uint64_t clean = 0;
    std::uint64_t repaired = 0;
    std::uint64_t rebuilt = 0;
    std::uint64_t issues_seen = 0;
    std::uint64_t entries_lost = 0;
};

/// Instantiated for core::TagSorter and core::FfsSorter (scrubber.cpp).
template <class Sorter>
class Scrubber {
public:
    explicit Scrubber(Sorter& sorter) : sorter_(sorter) {}

    /// Run one full scrub pass; always leaves the sorter consistent.
    ScrubOutcome scrub();

    const ScrubberStats& stats() const { return stats_; }

    /// `<prefix>.{scrubs,clean,repaired,rebuilt,issues_seen,entries_lost}`.
    void register_metrics(obs::MetricsRegistry& registry,
                          const std::string& prefix = "scrub") const;

private:
    Sorter& sorter_;
    ScrubberStats stats_;
};

extern template class Scrubber<core::TagSorter>;
extern template class Scrubber<core::FfsSorter>;

}  // namespace wfqs::fault
