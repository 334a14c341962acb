#include "fault/scrubber.hpp"

#include <type_traits>

#include "core/ffs_sorter.hpp"
#include "core/tag_sorter.hpp"
#include "obs/metrics.hpp"

namespace wfqs::fault {

const char* to_string(ScrubAction action) {
    switch (action) {
        case ScrubAction::kClean: return "clean";
        case ScrubAction::kRepaired: return "repaired";
        case ScrubAction::kRebuilt: return "rebuilt";
    }
    return "unknown";
}

template <class Sorter>
ScrubOutcome Scrubber<Sorter>::scrub() {
    ++stats_.scrubs;

    if constexpr (std::is_same_v<Sorter, core::TagSorter>) {
        // A recovery occupies the datapath for at least one cycle. This
        // also releases the current cycle's SRAM port budgets: the faulted
        // op may have charged a port before throwing, and a retry in the
        // same cycle would livelock on the resulting port conflict.
        sorter_.clock().advance();

        // Settle the ECC state first: whatever the audit decides, no
        // datapath access may keep throwing on a word the scrub has
        // already seen.
        sorter_.store().memory().relaunder();
        sorter_.table().memory().relaunder();
        sorter_.search_tree().relaunder();
    }

    ScrubOutcome outcome;
    const AuditReport report = sorter_.audit();
    outcome.issues = report.issues.size();
    stats_.issues_seen += report.issues.size();
    if (report.clean()) {
        ++stats_.clean;
        return outcome;
    }

    if (report.fully_repairable() && sorter_.repair(report)) {
        // Trust but verify: a repair that leaves residue is not a repair.
        if (sorter_.audit().clean()) {
            outcome.action = ScrubAction::kRepaired;
            ++stats_.repaired;
            return outcome;
        }
    }

    outcome.entries_lost = sorter_.rebuild();
    outcome.action = ScrubAction::kRebuilt;
    ++stats_.rebuilt;
    stats_.entries_lost += outcome.entries_lost;
    return outcome;
}

template <class Sorter>
void Scrubber<Sorter>::register_metrics(obs::MetricsRegistry& registry,
                                        const std::string& prefix) const {
    const auto cnt = [&](const char* name, const std::uint64_t ScrubberStats::*field) {
        registry.register_counter_fn(prefix + "." + name,
                                     [this, field] { return stats_.*field; });
    };
    cnt("scrubs", &ScrubberStats::scrubs);
    cnt("clean", &ScrubberStats::clean);
    cnt("repaired", &ScrubberStats::repaired);
    cnt("rebuilt", &ScrubberStats::rebuilt);
    cnt("issues_seen", &ScrubberStats::issues_seen);
    cnt("entries_lost", &ScrubberStats::entries_lost);
}

template class Scrubber<core::TagSorter>;
template class Scrubber<core::FfsSorter>;

}  // namespace wfqs::fault
