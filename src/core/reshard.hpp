// ReshardController: online bank add/remove for the flow-hashed sharded
// sorter, over either bank type.
//
// The sorter itself owns the mechanics (routing table, bank lifecycle,
// one-entry migration steps); this controller owns the *policy*:
//
//   * incremental drain — fencing a bank removes it from the routing
//     table immediately, but its entries move out one at a time, a
//     bounded number of stolen engagement slots per datapath op
//     (ReshardConfig::moves_per_op). Inserts, pops, and combined ops stay
//     correct throughout because the fenced bank keeps feeding the head
//     merge until it is empty (dual ownership).
//
//   * load-aware rebalancing — every check_interval ops the controller
//     compares per-bank occupancy across active banks; when the fullest
//     bank exceeds occupancy_skew x the active average (and the
//     min_occupancy floor), it bleeds entries from that bank until half
//     the excess is gone. Under flow hashing placement is advisory —
//     cross-bank ties already break by bank index — so moving entries
//     never changes which tag pops next, only which bank serves it.
//     The secondary wait-cycle signal reads the arbiter, so it only
//     fires on TagSorter banks.
//
//   * degraded mode — ShardedSorter::recover() fences a bank whose scrub
//     escalated to a rebuild and drains what it can synchronously; when
//     that drain stalls, the bank stays fenced and this controller keeps
//     pumping it from the per-op slot until it detaches.
//
// The controller is interleave-agnostic by refusal: every entry point
// no-ops (returns false/0) when the sorter cannot reshard, because
// interleaved placement is structural (tag mod N).
#pragma once

#include <cstdint>
#include <functional>

#include "core/sharded_sorter.hpp"
#include "obs/metrics.hpp"

namespace wfqs::core {

struct ReshardConfig {
    /// Migration steps stolen per datapath op while a drain or rebalance
    /// is in flight — the bounded cost of resharding under load.
    unsigned moves_per_op = 1;
    /// Rebalance when max active occupancy > occupancy_skew x average.
    double occupancy_skew = 4.0;
    /// ... and the fullest bank holds at least this many entries (noise floor).
    std::size_t min_occupancy = 64;
    /// Secondary signal: rebalance when one bank's bank_wait_cycles delta
    /// since the previous check exceeds wait_skew x the active average.
    double wait_skew = 4.0;
    /// Wait-cycle noise floor for that signal.
    std::uint64_t min_wait_delta = 64;
    /// Ops between rebalance checks.
    unsigned check_interval = 64;
    /// Master switch for the occupancy watcher (drains always pump).
    bool auto_rebalance = true;
};

struct ReshardStats {
    std::uint64_t moves = 0;               ///< migration steps completed
    std::uint64_t stalls = 0;              ///< pump rounds cut short (no dest)
    std::uint64_t rebalance_triggers = 0;  ///< skew threshold crossings
    std::uint64_t banks_added = 0;
    std::uint64_t banks_removed = 0;       ///< remove_bank fences requested
    std::uint64_t banks_detached = 0;      ///< drains completed to tombstone
};

/// Instantiated for both ShardedSorter bank types (reshard.cpp).
template <class Bank>
class ReshardController {
public:
    ReshardController(ShardedSorter<Bank>& sorter, const ReshardConfig& config = {});
    ~ReshardController();

    ReshardController(const ReshardController&) = delete;
    ReshardController& operator=(const ReshardController&) = delete;

    /// Bring a fresh bank online (routable immediately; the rebalancer
    /// fills it over time). Returns the new bank index, or nullopt when
    /// the sorter cannot reshard (interleave).
    std::optional<unsigned> add_bank();

    /// Fence bank `i` and drain it incrementally over subsequent ops;
    /// detaches on its own when empty. False when the fence is refused
    /// (interleave, unknown/non-active bank, or last routable bank).
    bool remove_bank(unsigned i);

    /// remove_bank without the "removed" intent — used by tests and by
    /// operators who want a bank out of rotation but counted separately.
    bool fence_bank(unsigned i);

    /// Run up to `max_moves` migration steps right now (drains first,
    /// then any in-flight rebalance). Returns steps completed.
    std::size_t pump(std::size_t max_moves);

    /// A drain or rebalance bleed is still in flight.
    bool migrating() const;

    /// Per-datapath-op hook, called by the sorter: steals
    /// moves_per_op migration slots while migrating, and runs the
    /// occupancy watcher every check_interval ops.
    void on_op();

    const ReshardStats& stats() const { return stats_; }
    const ReshardConfig& config() const { return config_; }

    /// Counters as `<prefix>.*` plus a `<prefix>.migrating` gauge.
    void register_metrics(obs::MetricsRegistry& registry,
                          const std::string& prefix = "reshard") const;

private:
    /// First bank that still owes moves: a non-empty draining bank, else
    /// the rebalance source while its bleed budget lasts. -1 = none.
    int pick_source() const;
    void maybe_rebalance();
    void note_event(int code, unsigned bank) const;

    ShardedSorter<Bank>& sorter_;
    ReshardConfig config_;
    ReshardStats stats_;
    std::uint64_t ops_seen_ = 0;
    int rebalance_from_ = -1;          ///< bank being bled, -1 = idle
    std::size_t rebalance_budget_ = 0; ///< moves left in the current bleed
    std::vector<std::uint64_t> last_wait_;  ///< wait snapshot per bank
};

extern template class ReshardController<TagSorter>;
extern template class ReshardController<FfsSorter>;

}  // namespace wfqs::core
