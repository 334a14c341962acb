// Single FIFO — the best-effort baseline (§I-A: "the current best-effort
// model ... does not provide bandwidth or real-time guarantees").
#pragma once

#include <deque>

#include "scheduler/packet_buffer.hpp"
#include "scheduler/scheduler.hpp"

namespace wfqs::scheduler {

class FifoScheduler final : public Scheduler {
public:
    explicit FifoScheduler(const SharedPacketBuffer::Config& buffer = {});

    net::FlowId add_flow(std::uint32_t weight) override;
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;

    bool has_packets() const override { return !q_.empty(); }
    std::size_t queued_packets() const override { return q_.size(); }
    std::string name() const override { return "FIFO"; }
    std::optional<std::uint32_t> peek_size(net::TimeNs) override {
        if (q_.empty()) return std::nullopt;
        return buffer_.peek(q_.front()).size_bytes;
    }

private:
    SharedPacketBuffer buffer_;
    std::deque<BufferRef> q_;
    std::uint32_t flow_count_ = 0;
};

}  // namespace wfqs::scheduler
