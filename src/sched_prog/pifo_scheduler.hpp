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
#include <vector>

#include "baselines/tag_queue.hpp"
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
    struct Pending {
        std::uint64_t rank;
        scheduler::BufferRef ref;
        std::uint32_t size_bytes;
        bool in_use = false;
    };
    std::uint32_t allocate_slot(std::uint64_t rank, scheduler::BufferRef ref,
                                std::uint32_t size_bytes);
    void release_slot(std::uint32_t slot);
    void promote_eligible(net::TimeNs now);

    Config config_;
    std::unique_ptr<RankFunction> rank_;
    std::unique_ptr<baselines::TagQueue> primary_;      ///< service-rank order
    std::unique_ptr<baselines::TagQueue> start_queue_;  ///< two-stage only
    scheduler::SharedPacketBuffer buffer_;
    std::vector<Pending> slots_;
    std::vector<std::uint32_t> free_slots_;
};

}  // namespace wfqs::sched_prog
