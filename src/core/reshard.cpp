#include "core/reshard.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/tracer.hpp"

namespace wfqs::core {

template <class Bank>
ReshardController<Bank>::ReshardController(ShardedSorter<Bank>& sorter,
                                           const ReshardConfig& config)
    : sorter_(sorter), config_(config) {
    WFQS_REQUIRE(sorter_.controller_ == nullptr,
                 "a ShardedSorter takes one ReshardController at a time");
    sorter_.controller_ = this;
}

template <class Bank>
ReshardController<Bank>::~ReshardController() {
    if (sorter_.controller_ == this) sorter_.controller_ = nullptr;
}

template <class Bank>
void ReshardController<Bank>::note_event(int code, unsigned bank) const {
    const double t = static_cast<double>(sorter_.now());
    obs::flight_record(obs::FlightEventKind::kReshard, t, code,
                       static_cast<std::int64_t>(bank));
    WFQS_TRACE_INSTANT("reshard", "sharded", t);
}

template <class Bank>
std::optional<unsigned> ReshardController<Bank>::add_bank() {
    if (!sorter_.reshard_supported()) return std::nullopt;
    const unsigned idx = sorter_.grow_bank();
    ++stats_.banks_added;
    note_event(0, idx);
    return idx;
}

template <class Bank>
bool ReshardController<Bank>::fence_bank(unsigned i) {
    if (!sorter_.fence_bank(i)) return false;
    note_event(1, i);
    // An already-empty bank has nothing to drain: tombstone it now.
    if (sorter_.maybe_detach(i)) {
        ++stats_.banks_detached;
        note_event(2, i);
    }
    return true;
}

template <class Bank>
bool ReshardController<Bank>::remove_bank(unsigned i) {
    if (!fence_bank(i)) return false;
    ++stats_.banks_removed;
    return true;
}

template <class Bank>
int ReshardController<Bank>::pick_source() const {
    // Drains first: a fenced bank holds entries the routing table no
    // longer owns, so it empties before any elective rebalancing.
    for (unsigned i = 0; i < sorter_.num_banks(); ++i)
        if (sorter_.bank_state(i) == BankState::kDraining &&
            !sorter_.bank(i).empty())
            return static_cast<int>(i);
    if (rebalance_from_ >= 0 && rebalance_budget_ > 0) {
        const unsigned b = static_cast<unsigned>(rebalance_from_);
        if (sorter_.bank_state(b) == BankState::kActive &&
            !sorter_.bank(b).empty())
            return rebalance_from_;
    }
    return -1;
}

template <class Bank>
bool ReshardController<Bank>::migrating() const { return pick_source() >= 0; }

template <class Bank>
std::size_t ReshardController<Bank>::pump(std::size_t max_moves) {
    if (!sorter_.reshard_supported()) return 0;
    std::size_t done = 0;
    while (done < max_moves) {
        const int src = pick_source();
        if (src < 0) break;
        const unsigned from = static_cast<unsigned>(src);
        if (!sorter_.migrate_from(from)) {
            // No bank can take this bank's head right now (window or
            // capacity). Give up the remaining slots; the next op retries.
            ++stats_.stalls;
            break;
        }
        ++done;
        ++stats_.moves;
        if (rebalance_from_ == src && --rebalance_budget_ == 0)
            rebalance_from_ = -1;
        if (sorter_.maybe_detach(from)) {
            ++stats_.banks_detached;
            note_event(2, from);
        }
    }
    return done;
}

template <class Bank>
void ReshardController<Bank>::maybe_rebalance() {
    if (!sorter_.reshard_supported() || sorter_.active_banks() < 2) return;
    if (rebalance_from_ >= 0) return;  // one bleed at a time

    // Two skew signals over the active banks: stored occupancy, and the
    // modeled wait cycles accumulated since the previous check (a bank
    // can be hot from op pressure without being the fullest).
    std::size_t total_occ = 0, max_occ = 0;
    std::uint64_t total_wait = 0, max_wait = 0;
    int occ_bank = -1, wait_bank = -1;
    last_wait_.resize(sorter_.num_banks(), 0);
    for (unsigned i = 0; i < sorter_.num_banks(); ++i) {
        const std::uint64_t wait_now = sorter_.bank_wait_cycles(i);
        const std::uint64_t wait_delta = wait_now - last_wait_[i];
        last_wait_[i] = wait_now;
        if (sorter_.bank_state(i) != BankState::kActive) continue;
        const std::size_t occ = sorter_.bank(i).size();
        total_occ += occ;
        if (occ > max_occ) {
            max_occ = occ;
            occ_bank = static_cast<int>(i);
        }
        total_wait += wait_delta;
        if (wait_delta > max_wait) {
            max_wait = wait_delta;
            wait_bank = static_cast<int>(i);
        }
    }
    const double n = static_cast<double>(sorter_.active_banks());
    const double avg_occ = static_cast<double>(total_occ) / n;
    const double avg_wait = static_cast<double>(total_wait) / n;

    int src = -1;
    if (occ_bank >= 0 && max_occ >= config_.min_occupancy &&
        static_cast<double>(max_occ) > config_.occupancy_skew * avg_occ) {
        src = occ_bank;
    } else if (wait_bank >= 0 && max_wait >= config_.min_wait_delta &&
               static_cast<double>(max_wait) > config_.wait_skew * avg_wait &&
               sorter_.bank(static_cast<unsigned>(wait_bank)).size() >=
                   config_.min_occupancy) {
        src = wait_bank;
    }
    if (src < 0) return;

    const std::size_t occ = sorter_.bank(static_cast<unsigned>(src)).size();
    const std::size_t excess =
        occ > static_cast<std::size_t>(avg_occ) ? occ - static_cast<std::size_t>(avg_occ)
                                                : 0;
    ++stats_.rebalance_triggers;
    rebalance_from_ = src;
    rebalance_budget_ = std::max<std::size_t>(1, excess / 2);
    note_event(3, static_cast<unsigned>(src));
}

template <class Bank>
void ReshardController<Bank>::on_op() {
    ++ops_seen_;
    // Drop a bleed whose source went away (fenced underneath us, drained
    // empty, or the budget ran dry in a pump round).
    if (rebalance_from_ >= 0) {
        const unsigned b = static_cast<unsigned>(rebalance_from_);
        if (rebalance_budget_ == 0 ||
            sorter_.bank_state(b) != BankState::kActive ||
            sorter_.bank(b).empty())
            rebalance_from_ = -1;
    }
    if (migrating()) pump(config_.moves_per_op);
    if (config_.auto_rebalance && config_.check_interval > 0 &&
        ops_seen_ % config_.check_interval == 0)
        maybe_rebalance();
}

template <class Bank>
void ReshardController<Bank>::register_metrics(obs::MetricsRegistry& registry,
                                               const std::string& prefix) const {
    const auto cnt = [&](const char* name, const std::uint64_t ReshardStats::*field) {
        registry.register_counter_fn(prefix + "." + name,
                                     [this, field] { return stats_.*field; });
    };
    cnt("moves", &ReshardStats::moves);
    cnt("stalls", &ReshardStats::stalls);
    cnt("rebalance_triggers", &ReshardStats::rebalance_triggers);
    cnt("banks_added", &ReshardStats::banks_added);
    cnt("banks_removed", &ReshardStats::banks_removed);
    cnt("banks_detached", &ReshardStats::banks_detached);
    registry.register_gauge_fn(prefix + ".migrating",
                               [this] { return migrating() ? 1.0 : 0.0; });
}

template class ReshardController<TagSorter>;
template class ReshardController<FfsSorter>;

}  // namespace wfqs::core
