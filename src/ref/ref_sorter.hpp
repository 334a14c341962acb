// Golden reference model of the tag sort/retrieve contract.
//
// A std::multimap keyed by *logical* tag, with FIFO order among equal
// tags (multimap::emplace appends at the upper bound of the equal range),
// mirroring the behavioural contract of core::TagSorter:
//
//   * retrieve-smallest returns the smallest live logical tag, FIFO among
//     duplicates;
//   * insert enforces the same moving-window discipline as Fig. 6 when a
//     span is configured — the live window [min(tag, head), max(tag,
//     largest-tag-ever-in-this-backlog)] must stay below the span — and
//     the same capacity/strict-minimum preconditions, throwing the same
//     exception types;
//   * insert_and_pop serves the *previous* minimum, then stores the new
//     tag (§III-C).
//
// The model is deliberately trivial: no tree, no translation table, no
// wrap arithmetic — the whole point is that its correctness is evident by
// inspection, so every divergence found by the differential harness
// indicts the circuit model, not the oracle. It is the single reference
// implementation shared by bench/fault_soak, tests/sharded_test, and the
// property-based conformance drivers.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>

#include "core/tag_sorter.hpp"

namespace wfqs::core {
template <class Bank>
class ShardedSorter;
}

namespace wfqs::ref {

class RefSorter {
public:
    struct Config {
        /// Entries stored before insert throws std::overflow_error.
        std::size_t capacity = std::numeric_limits<std::size_t>::max();
        /// Moving-window span; 0 disables the window check (used when the
        /// device under test enforces its window per bank, which a global
        /// model cannot reproduce exactly).
        std::uint64_t window_span = 0;
        /// Paper-mode: reject tags below the current minimum.
        bool strict_min_discipline = false;
    };

    RefSorter() = default;
    explicit RefSorter(const Config& config) : config_(config) {}

    /// A reference enforcing exactly the contract of `sorter` (capacity,
    /// window span, strict-minimum mode).
    static RefSorter mirror(const core::TagSorter& sorter);

    // -- datapath ----------------------------------------------------------

    /// Would insert(tag, ...) be accepted? Mirrors the precondition order
    /// of TagSorter::insert: capacity first, then the window discipline.
    bool would_accept(std::uint64_t tag) const;

    /// Would insert_and_pop(tag, ...) be accepted? The combined op has no
    /// capacity precondition (it reuses the departing slot) — only
    /// non-emptiness and the window discipline.
    bool would_accept_combined(std::uint64_t tag) const;

    /// Throws std::overflow_error (full) / std::invalid_argument (window)
    /// exactly where the hardware model does.
    void insert(std::uint64_t tag, std::uint32_t payload);

    std::optional<core::SortedTag> peek_min() const;
    std::optional<core::SortedTag> pop_min();

    /// §III-C combined op. Precondition (checked): non-empty.
    core::SortedTag insert_and_pop(std::uint64_t tag, std::uint32_t payload);

    // -- observers ---------------------------------------------------------

    std::optional<std::uint64_t> min_tag() const;
    std::size_t size() const { return by_tag_.size(); }
    bool empty() const { return by_tag_.empty(); }
    bool full() const { return by_tag_.size() >= config_.capacity; }
    std::uint64_t window_span() const { return config_.window_span; }
    const Config& config() const { return config_; }

    // -- resynchronisation -------------------------------------------------

    void clear() { by_tag_.clear(); }

    /// Re-adopt a recovered hardware sorter's live contents as the ground
    /// truth (after a scrub/rebuild the circuit is the authority on what
    /// survived). Logical tags are reconstructed from the head register
    /// plus the wrapped physical offsets in the store, payloads straight
    /// from the store snapshot.
    void resync(const core::TagSorter& sorter);

    /// Sharded variant: re-adopt every bank's surviving contents (fenced
    /// and draining banks included — their entries are still owed to the
    /// output). Used by the reshard soak after scrubs and by degraded-mode
    /// recovery checks.
    void resync(const core::ShardedSorter<core::TagSorter>& sorter);

private:
    /// Append one recovered TagSorter's contents (resync minus the clear);
    /// `to_aggregate` lifts a bank-local logical tag to the aggregate tag.
    void absorb(const core::TagSorter& sorter,
                const std::function<std::uint64_t(std::uint64_t)>& to_aggregate);

    void validate_incoming(std::uint64_t tag) const;

    Config config_;
    std::multimap<std::uint64_t, std::uint32_t> by_tag_;
    std::uint64_t max_seen_ = 0;  ///< largest tag of the current backlog epoch
};

}  // namespace wfqs::ref
