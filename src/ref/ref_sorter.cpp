#include "ref/ref_sorter.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/assert.hpp"
#include "core/sharded_sorter.hpp"

namespace wfqs::ref {

RefSorter RefSorter::mirror(const core::TagSorter& sorter) {
    Config cfg;
    cfg.capacity = sorter.capacity();
    cfg.window_span = sorter.window_span();
    cfg.strict_min_discipline = sorter.config().strict_min_discipline;
    return RefSorter(cfg);
}

void RefSorter::validate_incoming(std::uint64_t tag) const {
    if (empty()) return;
    const std::uint64_t head = by_tag_.begin()->first;
    if (config_.strict_min_discipline && tag < head)
        throw std::invalid_argument(
            "RefSorter: paper-mode contract: a new tag may not undercut the minimum");
    if (config_.window_span == 0) return;
    const std::uint64_t lo = std::min(tag, head);
    const std::uint64_t hi = std::max(tag, max_seen_);
    if (hi - lo >= config_.window_span)
        throw std::invalid_argument(
            "RefSorter: tag would stretch the live window beyond the wrap limit");
}

bool RefSorter::would_accept(std::uint64_t tag) const {
    if (full()) return false;
    try {
        validate_incoming(tag);
    } catch (const std::invalid_argument&) {
        return false;
    }
    return true;
}

bool RefSorter::would_accept_combined(std::uint64_t tag) const {
    if (empty()) return false;
    try {
        validate_incoming(tag);
    } catch (const std::invalid_argument&) {
        return false;
    }
    return true;
}

void RefSorter::insert(std::uint64_t tag, std::uint32_t payload) {
    if (full()) throw std::overflow_error("RefSorter: tag memory full");
    validate_incoming(tag);
    const bool was_empty = empty();
    by_tag_.emplace(tag, payload);
    max_seen_ = was_empty ? tag : std::max(max_seen_, tag);
}

std::optional<core::SortedTag> RefSorter::peek_min() const {
    if (empty()) return std::nullopt;
    const auto it = by_tag_.begin();
    return core::SortedTag{it->first, it->second};
}

std::optional<core::SortedTag> RefSorter::pop_min() {
    if (empty()) return std::nullopt;
    const auto it = by_tag_.begin();
    const core::SortedTag r{it->first, it->second};
    by_tag_.erase(it);
    return r;
}

core::SortedTag RefSorter::insert_and_pop(std::uint64_t tag, std::uint32_t payload) {
    WFQS_REQUIRE(!empty(), "insert_and_pop needs a non-empty sorter");
    validate_incoming(tag);
    const auto popped = pop_min();  // serve the previous minimum...
    by_tag_.emplace(tag, payload);  // ...then store the new tag
    max_seen_ = std::max(max_seen_, tag);
    return *popped;
}

std::optional<std::uint64_t> RefSorter::min_tag() const {
    if (empty()) return std::nullopt;
    return by_tag_.begin()->first;
}

void RefSorter::absorb(
    const core::TagSorter& sorter,
    const std::function<std::uint64_t(std::uint64_t)>& to_aggregate) {
    if (sorter.empty()) return;
    const std::uint64_t range = sorter.search_tree().geometry().capacity();
    const auto snap = sorter.store().snapshot();
    const std::uint64_t head_logical = sorter.peek_min()->tag;
    const std::uint64_t head_physical = snap.front().tag;
    for (const auto& e : snap)
        by_tag_.emplace(
            to_aggregate(head_logical + ((e.tag - head_physical) & (range - 1))),
            e.payload);
}

void RefSorter::resync(const core::TagSorter& sorter) {
    by_tag_.clear();
    absorb(sorter, [](std::uint64_t tag) { return tag; });
    if (!by_tag_.empty()) max_seen_ = by_tag_.rbegin()->first;
}

void RefSorter::resync(const core::ShardedSorter<core::TagSorter>& sorter) {
    by_tag_.clear();
    for (unsigned i = 0; i < sorter.num_banks(); ++i)
        absorb(sorter.bank(i),
               [&sorter, i](std::uint64_t tag) { return sorter.global_tag(tag, i); });
    if (!by_tag_.empty()) max_seen_ = by_tag_.rbegin()->first;
}

}  // namespace wfqs::ref
