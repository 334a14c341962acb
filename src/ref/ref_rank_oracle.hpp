// Rank-policy oracles for the programmable-scheduling layer
// (src/sched_prog): independent reimplementations that the conformance
// differ runs in lockstep with the real schedulers.
//
//   * RefRankOracle — an *exact* PIFO over ordered multimaps, driven by
//     its own RankFunction instance. Rank functions are deterministic
//     state machines over the (packet, now) stream, so the oracle and
//     the DUT compute identical ranks from identical inputs without
//     sharing any state; any divergence in the *served packet sequence*
//     is a DUT bug. Two-stage policies (WF2Q+) mirror the DUT's
//     pending/eligible arrangement, including the forced-promotion
//     escape for quantization rounding.
//   * RefSpPifo / RefRifo — straight-line mirrors of the approximation
//     algorithms (adaptive queue bounds, rank-range admission) with no
//     packet buffer and no hardware model underneath. RefRifo reuses
//     RifoScheduler::admits literally so the admission inequality has a
//     single definition.
//   * RankInversionMeter — an observer, not a dictator: it watches the
//     offered/served stream of *any* scheduler and counts rank
//     inversions (a served packet outranked by one still queued). For
//     two-stage policies only *eligible* packets can convict a serve —
//     an ineligible WF2Q+ packet legitimately waits behind larger
//     finish tags — so the meter mirrors the eligibility split too.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/packet.hpp"
#include "sched_prog/rank.hpp"

namespace wfqs::ref {

/// Exact PIFO semantics for any rank policy: serve the minimum-rank
/// packet, FIFO among rank ties (arrival order for single-stage,
/// promotion order for two-stage).
class RefRankOracle {
public:
    RefRankOracle(sched_prog::RankPolicy policy,
                  const sched_prog::RankConfig& config = {});

    net::FlowId add_flow(std::uint32_t weight);

    /// Feed an offered packet; returns the rank the policy assigned.
    std::uint64_t enqueue(const net::Packet& packet, net::TimeNs now);

    /// The packet an exact PIFO serves at `now` (nullopt when empty).
    std::optional<net::Packet> dequeue(net::TimeNs now);

    bool empty() const { return eligible_.empty() && pending_.empty(); }
    std::size_t size() const { return eligible_.size() + pending_.size(); }

    /// Smallest rank currently serveable (promotes first for two-stage).
    std::optional<std::uint64_t> min_rank(net::TimeNs now);

    const sched_prog::RankFunction& rank_function() const { return *rank_; }

private:
    struct Stored {
        net::Packet packet;
        std::uint64_t rank;
    };
    using Key = std::pair<std::uint64_t, std::uint64_t>;  // (order key, seq)

    void promote(net::TimeNs now);

    std::unique_ptr<sched_prog::RankFunction> rank_;
    std::map<Key, Stored> eligible_;  ///< keyed (rank, promotion seq)
    std::map<Key, Stored> pending_;   ///< keyed (start, arrival seq)
    std::uint64_t arrival_seq_ = 0;
    std::uint64_t promo_seq_ = 0;
};

/// Mirror of SpPifoScheduler: N strict-priority FIFOs with adaptive
/// bounds, push-up/push-down exactly as the DUT implements them.
class RefSpPifo {
public:
    RefSpPifo(sched_prog::RankPolicy policy, unsigned num_queues,
              const sched_prog::RankConfig& config = {});

    net::FlowId add_flow(std::uint32_t weight);
    std::uint64_t enqueue(const net::Packet& packet, net::TimeNs now);
    std::optional<net::Packet> dequeue(net::TimeNs now);
    bool empty() const;
    std::size_t size() const;

private:
    std::unique_ptr<sched_prog::RankFunction> rank_;
    /// (packet, rank) per queue; [0] = highest prio.
    std::vector<std::vector<std::pair<net::Packet, std::uint64_t>>> queues_;
    std::vector<std::size_t> heads_;                ///< pop cursor per queue
    std::vector<std::uint64_t> bounds_;
};

/// Mirror of RifoScheduler: one FIFO plus the shared rank-range
/// admission predicate; the rank function sees every offered packet.
class RefRifo {
public:
    RefRifo(sched_prog::RankPolicy policy, std::size_t capacity,
            const sched_prog::RankConfig& config = {});

    net::FlowId add_flow(std::uint32_t weight);
    /// Returns false when admission refuses the packet.
    bool enqueue(const net::Packet& packet, net::TimeNs now);
    std::optional<net::Packet> dequeue(net::TimeNs now);
    bool empty() const { return head_ == fifo_.size(); }
    std::size_t size() const { return fifo_.size() - head_; }
    std::uint64_t rank_drops() const { return rank_drops_; }

private:
    std::unique_ptr<sched_prog::RankFunction> rank_;
    std::size_t capacity_;
    std::vector<std::pair<net::Packet, std::uint64_t>> fifo_;
    std::size_t head_ = 0;
    std::multiset<std::uint64_t> ranks_;
    std::uint64_t rank_drops_ = 0;
};

/// Counts rank inversions in any scheduler's served stream. Drive it
/// with every offered packet (admitted or not) and every serve; it owns
/// an independent RankFunction mirroring the DUT's.
class RankInversionMeter {
public:
    RankInversionMeter(sched_prog::RankPolicy policy,
                       const sched_prog::RankConfig& config = {});

    net::FlowId add_flow(std::uint32_t weight);

    /// Observe an offered packet. `accepted` mirrors the DUT's enqueue
    /// result — rejected packets still advance the rank clock but never
    /// join the queue image.
    void on_offer(const net::Packet& packet, net::TimeNs now, bool accepted);

    /// Observe a serve; counts an inversion when the served packet's
    /// rank exceeds the smallest (eligible) rank still queued.
    void on_serve(const net::Packet& packet, net::TimeNs now);

    std::uint64_t inversions() const { return inversions_; }
    std::uint64_t serves() const { return serves_; }
    double inversion_rate() const {
        return serves_ == 0 ? 0.0
                            : static_cast<double>(inversions_) /
                                  static_cast<double>(serves_);
    }

private:
    struct Image {
        std::uint64_t rank;
        std::uint64_t start;
        bool eligible;  ///< single-stage packets are born eligible
    };

    void promote(net::TimeNs now);

    std::unique_ptr<sched_prog::RankFunction> rank_;
    std::unordered_map<std::uint64_t, Image> queued_;  ///< by packet id
    std::multiset<std::uint64_t> eligible_ranks_;
    std::multiset<std::pair<std::uint64_t, std::uint64_t>> pending_;  ///< (start, id)
    std::uint64_t inversions_ = 0;
    std::uint64_t serves_ = 0;
};

}  // namespace wfqs::ref
