// PifoScheduler — the programmable scheduling layer over the paper's
// sorter.
//
// Any TagSorter-contract backend (the cycle-accurate model, the sharded
// circuit, the host-native FFS sorter, or any Table I baseline behind
// baselines::TagQueue) serves as the PIFO primitive; the discipline is
// chosen by plugging in a RankFunction. Single-stage policies use one
// sort structure keyed by the service rank; two-stage policies (WF2Q+)
// add a second structure keyed by the start rank, from which packets are
// promoted once eligible — the two sort operations per packet that §I-B
// attributes to WF2Q+.
//
// Construction takes a *queue factory* rather than queue instances, so
// one configuration line can build either one or two sort structures
// (and benches can sweep backends without knowing which policies are
// two-stage).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "baselines/tag_queue.hpp"
#include "fault/errors.hpp"
#include "sched_prog/rank.hpp"
#include "scheduler/packet_buffer.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::sched_prog {

using QueueFactory = std::function<std::unique_ptr<baselines::TagQueue>()>;

class PifoScheduler final : public scheduler::Scheduler {
public:
    struct Config {
        RankPolicy policy = RankPolicy::kWfq;
        RankConfig rank = {};
        scheduler::SharedPacketBuffer::Config buffer = {};
    };

    PifoScheduler(const Config& config, QueueFactory make_queue);

    net::FlowId add_flow(std::uint32_t weight) override;
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;

    bool has_packets() const override;
    std::size_t queued_packets() const override;
    std::string name() const override;
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;
    /// Scrubs both sort structures; false if either cannot recover.
    bool recover() override;

    std::uint64_t drops() const { return buffer_.drops(); }
    const RankFunction& rank_function() const { return *rank_; }
    /// Packets past the eligibility gate (== queued for single-stage).
    std::size_t eligible_packets() const { return primary_->size(); }

private:
    /// Checks that a sorter head names a stored packet. A sorter can
    /// return a payload it never stored (after a parity rebuild): that
    /// head is taken off `queue` (null: the caller already popped it) and
    /// reported as a fault::IntegrityError, which the driver counts and
    /// recovers from.
    void expect_held(baselines::TagQueue* queue, std::uint32_t payload);
    void promote_head(const baselines::QueueEntry& head);
    void promote_eligible(net::TimeNs now);
    /// Throws the phantom-payload error an enqueue's promotion held back.
    void raise_held_phantom();

    Config config_;
    std::unique_ptr<RankFunction> rank_;
    std::unique_ptr<baselines::TagQueue> primary_;      ///< service-rank order
    std::unique_ptr<baselines::TagQueue> start_queue_;  ///< two-stage only
    /// Sorter payloads are buffer refs.
    scheduler::SharedPacketBuffer buffer_;
    /// Service rank of each stored packet, indexed by buffer ref.
    std::vector<std::uint64_t> rank_of_;
    /// {packet id, ranks} of the last faulted insert, for its retry.
    std::optional<std::pair<std::uint64_t, RankSet>> retry_;
    /// A phantom payload discarded during an enqueue's promotion, raised
    /// by the next dequeue/peek so the driver counts it exactly once.
    std::optional<fault::IntegrityError> phantom_;
};

}  // namespace wfqs::sched_prog
