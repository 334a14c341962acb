// SP-PIFO — approximating a PIFO with a handful of strict-priority FIFO
// queues (Alcoz et al., "SP-PIFO: Approximating Push-In First-Out
// Behaviors using Strict-Priority Queues"; see also "Everything Matters
// in Programmable Packet Scheduling", PAPERS.md).
//
// Each of the N FIFO queues carries an adaptive rank bound. An arriving
// packet scans from the lowest-priority queue upward and enters the
// first queue whose bound does not exceed its rank, raising that bound
// to the rank ("push-up"). A packet ranked below every bound enters the
// highest-priority queue and all bounds decrease by the undershoot
// ("push-down"). Service is strict priority across the queues, FIFO
// within one — so packets mapped to the same queue can be served out of
// rank order: the *inversions* the exact sorter never produces, and
// exactly what bench/policy_comparison measures against the PIFO rows.
//
// Behind the same scheduler::Scheduler interface as PifoScheduler so the
// conformance differ and the benches treat approximations and exact
// sorting uniformly.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sched_prog/rank.hpp"
#include "scheduler/packet_buffer.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::sched_prog {

class SpPifoScheduler final : public scheduler::Scheduler {
public:
    struct Config {
        RankPolicy policy = RankPolicy::kWfq;
        RankConfig rank = {};
        unsigned num_queues = 8;
        scheduler::SharedPacketBuffer::Config buffer = {};
    };

    explicit SpPifoScheduler(const Config& config);

    net::FlowId add_flow(std::uint32_t weight) override;
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;

    bool has_packets() const override;
    std::size_t queued_packets() const override;
    std::string name() const override;
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;

    std::uint64_t push_ups() const { return push_ups_; }
    std::uint64_t push_downs() const { return push_downs_; }

private:
    struct Entry {
        std::uint64_t rank;
        scheduler::BufferRef ref;
        std::uint32_t size_bytes;
    };

    Config config_;
    std::unique_ptr<RankFunction> rank_;
    scheduler::SharedPacketBuffer buffer_;
    std::vector<std::deque<Entry>> queues_;  ///< [0] = highest priority
    std::vector<std::uint64_t> bounds_;
    std::uint64_t push_ups_ = 0;
    std::uint64_t push_downs_ = 0;
};

}  // namespace wfqs::sched_prog
