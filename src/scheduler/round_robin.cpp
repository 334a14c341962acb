#include "scheduler/round_robin.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace wfqs::scheduler {

// ------------------------------------------------------------------ base

PerFlowScheduler::PerFlowScheduler(const SharedPacketBuffer::Config& buffer)
    : buffer_(buffer) {}

net::FlowId PerFlowScheduler::add_flow(std::uint32_t weight) {
    WFQS_REQUIRE(weight > 0, "flow weight must be positive");
    flows_.push_back(Flow{weight, {}});
    return static_cast<net::FlowId>(flows_.size() - 1);
}

bool PerFlowScheduler::do_enqueue(const net::Packet& packet, net::TimeNs /*now*/) {
    WFQS_REQUIRE(packet.flow < flows_.size(), "unknown flow");
    const auto ref = buffer_.store(packet);
    if (!ref) return false;
    flows_[packet.flow].q.push_back(*ref);
    ++queued_;
    if (flows_[packet.flow].q.size() == 1) on_backlogged(packet.flow);
    return true;
}

std::uint32_t PerFlowScheduler::head_bytes(net::FlowId f) const {
    WFQS_ASSERT(!flows_[f].q.empty());
    return buffer_.peek(flows_[f].q.front()).size_bytes;
}

net::Packet PerFlowScheduler::serve_head(net::FlowId f) {
    WFQS_ASSERT(!flows_[f].q.empty());
    const BufferRef ref = flows_[f].q.front();
    flows_[f].q.pop_front();
    --queued_;
    return buffer_.retrieve(ref);
}

// ------------------------------------------------------------------- WRR

std::optional<net::Packet> WrrScheduler::do_dequeue(net::TimeNs /*now*/) {
    if (queued_ == 0) return std::nullopt;
    credits_.resize(flows_.size(), 0);
    // Two sweeps: first spend remaining credits, then start a new round.
    for (int sweep = 0; sweep < 2; ++sweep) {
        for (std::size_t step = 0; step < flows_.size(); ++step) {
            const std::size_t f = (cursor_ + step) % flows_.size();
            if (!flows_[f].q.empty() && credits_[f] > 0) {
                --credits_[f];
                // Stay on this flow while it has credit; else move on.
                cursor_ = credits_[f] > 0 ? f : (f + 1) % flows_.size();
                return serve_head(static_cast<net::FlowId>(f));
            }
        }
        // New round: refill every credit to the flow weight.
        for (std::size_t f = 0; f < flows_.size(); ++f) credits_[f] = flows_[f].weight;
    }
    WFQS_ASSERT_MSG(false, "WRR failed to find a backlogged flow");
    return std::nullopt;
}

// ------------------------------------------------------------------- DRR

DrrScheduler::DrrScheduler(std::uint32_t quantum_bytes,
                           const SharedPacketBuffer::Config& buffer)
    : PerFlowScheduler(buffer), quantum_(quantum_bytes) {
    WFQS_REQUIRE(quantum_bytes > 0, "DRR quantum must be positive");
}

void DrrScheduler::on_backlogged(net::FlowId f) {
    deficit_.resize(flows_.size(), 0);
    in_active_.resize(flows_.size(), false);
    fresh_turn_.resize(flows_.size(), true);
    if (!in_active_[f]) {
        in_active_[f] = true;
        fresh_turn_[f] = true;
        active_.push_back(f);
    }
}

std::optional<net::FlowId> DrrScheduler::select() {
    while (!active_.empty()) {
        const net::FlowId f = active_.front();
        if (flows_[f].q.empty()) {
            // Emptied during its turn: leave the round, reset deficit.
            deficit_[f] = 0;
            in_active_[f] = false;
            fresh_turn_[f] = true;
            active_.pop_front();
            continue;
        }
        if (fresh_turn_[f]) {
            deficit_[f] += std::uint64_t{quantum_} * flows_[f].weight;
            fresh_turn_[f] = false;
        }
        if (deficit_[f] >= head_bytes(f)) return f;
        // Deficit exhausted: rotate to the back, keep the remainder.
        fresh_turn_[f] = true;
        active_.pop_front();
        active_.push_back(f);
    }
    return std::nullopt;
}

std::optional<std::uint32_t> DrrScheduler::peek_size(net::TimeNs /*now*/) {
    const std::optional<net::FlowId> f = select();
    if (!f) return std::nullopt;
    return head_bytes(*f);
}

std::optional<net::Packet> DrrScheduler::do_dequeue(net::TimeNs /*now*/) {
    const std::optional<net::FlowId> f = select();
    if (!f) return std::nullopt;
    deficit_[*f] -= head_bytes(*f);
    return serve_head(*f);
}

// ------------------------------------------------------------------- SRR

SrrScheduler::SrrScheduler(std::uint32_t quantum_bytes,
                           const SharedPacketBuffer::Config& buffer)
    : PerFlowScheduler(buffer), quantum_(quantum_bytes) {
    WFQS_REQUIRE(quantum_bytes > 0, "SRR quantum must be positive");
}

std::size_t SrrScheduler::stratum_of_weight(std::uint32_t weight) const {
    return static_cast<std::size_t>(highest_set(weight));  // floor(log2 w)
}

net::FlowId SrrScheduler::add_flow(std::uint32_t weight) {
    const net::FlowId f = PerFlowScheduler::add_flow(weight);
    const std::size_t k = stratum_of_weight(weight);
    if (strata_.size() <= k) {
        for (std::size_t i = strata_.size(); i <= k; ++i)
            strata_.push_back(Stratum{1u << i, {}, 0, true, false});
    }
    flow_stratum_.push_back(k);
    flow_queued_.push_back(false);
    return f;
}

void SrrScheduler::on_backlogged(net::FlowId f) {
    const std::size_t k = flow_stratum_[f];
    Stratum& s = strata_[k];
    if (!flow_queued_[f]) {
        flow_queued_[f] = true;
        s.rr.push_back(f);
    }
    if (!s.in_active) {
        s.in_active = true;
        s.fresh_turn = true;
        active_strata_.push_back(k);
    }
}

std::optional<net::Packet> SrrScheduler::do_dequeue(net::TimeNs /*now*/) {
    while (!active_strata_.empty()) {
        const std::size_t k = active_strata_.front();
        Stratum& s = strata_[k];
        // Drop members whose queues drained.
        while (!s.rr.empty() && flows_[s.rr.front()].q.empty()) {
            flow_queued_[s.rr.front()] = false;
            s.rr.pop_front();
        }
        if (s.rr.empty()) {
            s.deficit = 0;
            s.fresh_turn = true;
            s.in_active = false;
            active_strata_.pop_front();
            continue;
        }
        if (s.fresh_turn) {
            // The stratum's service share aggregates its members: the
            // class granularity the paper criticises.
            s.deficit += std::uint64_t{quantum_} * s.weight_scale * s.rr.size();
            s.fresh_turn = false;
        }
        const net::FlowId f = s.rr.front();
        const std::uint32_t head = head_bytes(f);
        if (s.deficit >= head) {
            s.deficit -= head;
            // Round robin within the stratum.
            s.rr.pop_front();
            const net::Packet pkt = serve_head(f);
            if (!flows_[f].q.empty()) {
                s.rr.push_back(f);
            } else {
                flow_queued_[f] = false;
            }
            return pkt;
        }
        s.fresh_turn = true;
        active_strata_.pop_front();
        active_strata_.push_back(k);
    }
    return std::nullopt;
}

}  // namespace wfqs::scheduler
