// The round-robin scheduler family of §I-B — the approaches the paper
// argues cannot provide effective delay bounds for variable-size packets:
//
//   WRR  — weighted round robin [2]: per-round packet credits equal to
//          the flow weight (assumes known/uniform packet sizes).
//   DRR  — deficit round robin [3]: byte-accurate quanta, O(1) work.
//   SRR  — stratified round robin [11]: flows grouped into weight classes
//          (strata); deficit scheduling across classes, plain round robin
//          within one — reproducing the aggregation granularity the paper
//          holds against it ("the number of traffic classes is greatly
//          limited").
//
// All share the per-flow FIFO + shared-buffer machinery so drop behaviour
// is comparable with the fair-queueing scheduler. The hierarchical
// round-robin variants of §I-B are sched_prog::HierScheduler trees over
// these: MDRR (the Cisco VoIP arrangement: one strict-priority
// low-latency queue in front of DRR) is a priority-0 FIFO class over a
// DRR class, and CBQ ("a hierarchical approach to DRR") is a DWRR level
// whose classes are DRR schedulers.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "scheduler/packet_buffer.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::scheduler {

/// Shared machinery: per-flow FIFOs of buffer references.
class PerFlowScheduler : public Scheduler {
public:
    explicit PerFlowScheduler(const SharedPacketBuffer::Config& buffer = {});

    net::FlowId add_flow(std::uint32_t weight) override;
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    bool has_packets() const override { return queued_ > 0; }
    std::size_t queued_packets() const override { return queued_; }


protected:
    struct Flow {
        std::uint32_t weight;
        std::deque<BufferRef> q;
    };

    /// Called after a packet joins flow `f`'s queue.
    virtual void on_backlogged(net::FlowId f) = 0;

    std::uint32_t head_bytes(net::FlowId f) const;
    net::Packet serve_head(net::FlowId f);

    std::vector<Flow> flows_;
    SharedPacketBuffer buffer_;
    std::size_t queued_ = 0;
};

class WrrScheduler final : public PerFlowScheduler {
public:
    using PerFlowScheduler::PerFlowScheduler;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;
    std::string name() const override { return "WRR"; }

protected:
    void on_backlogged(net::FlowId) override {}

private:
    std::vector<std::uint32_t> credits_;
    std::size_t cursor_ = 0;
};

class DrrScheduler final : public PerFlowScheduler {
public:
    explicit DrrScheduler(std::uint32_t quantum_bytes = 1500,
                          const SharedPacketBuffer::Config& buffer = {});
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;
    std::string name() const override { return "DRR"; }
    /// Exact: the head of the flow do_dequeue(now) would serve.
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;

protected:
    void on_backlogged(net::FlowId f) override;

private:
    /// Rotate the active ring until its front flow's deficit covers that
    /// flow's head packet; returns the flow, or nullopt when idle. The
    /// step peek_size and do_dequeue share: once it stops, calling it
    /// again changes nothing, so a peek sizes exactly the packet the next
    /// dequeue serves.
    std::optional<net::FlowId> select();

    std::uint32_t quantum_;
    std::vector<std::uint64_t> deficit_;
    std::vector<bool> in_active_;
    std::vector<bool> fresh_turn_;
    std::deque<net::FlowId> active_;
};

class SrrScheduler final : public PerFlowScheduler {
public:
    explicit SrrScheduler(std::uint32_t quantum_bytes = 1500,
                          const SharedPacketBuffer::Config& buffer = {});
    net::FlowId add_flow(std::uint32_t weight) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;
    std::string name() const override { return "SRR"; }

protected:
    void on_backlogged(net::FlowId f) override;

private:
    struct Stratum {
        std::uint32_t weight_scale;  ///< 2^k
        std::deque<net::FlowId> rr;  ///< backlogged members, round-robin order
        std::uint64_t deficit = 0;
        bool fresh_turn = true;
        bool in_active = false;
    };
    std::size_t stratum_of_weight(std::uint32_t weight) const;

    std::uint32_t quantum_;
    std::vector<std::size_t> flow_stratum_;
    std::vector<Stratum> strata_;
    std::deque<std::size_t> active_strata_;
    std::vector<bool> flow_queued_;
};

}  // namespace wfqs::scheduler
