#include "sched_prog/pifo_scheduler.hpp"

#include "common/assert.hpp"

namespace wfqs::sched_prog {

PifoScheduler::PifoScheduler(const Config& config, QueueFactory make_queue)
    : config_(config),
      rank_(make_rank_function(config.policy, config.rank)),
      buffer_(config.buffer) {
    WFQS_REQUIRE(make_queue != nullptr, "a queue factory is required");
    primary_ = make_queue();
    WFQS_REQUIRE(primary_ != nullptr, "queue factory produced nothing");
    if (rank_->two_stage()) {
        start_queue_ = make_queue();
        WFQS_REQUIRE(start_queue_ != nullptr, "queue factory produced nothing");
    }
}

net::FlowId PifoScheduler::add_flow(std::uint32_t weight) {
    return rank_->add_flow(weight);
}

std::uint32_t PifoScheduler::allocate_slot(std::uint64_t rank,
                                           scheduler::BufferRef ref,
                                           std::uint32_t size_bytes) {
    std::uint32_t slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.emplace_back();
    }
    slots_[slot] = Pending{rank, ref, size_bytes, true};
    return slot;
}

void PifoScheduler::release_slot(std::uint32_t slot) {
    WFQS_ASSERT(slot < slots_.size() && slots_[slot].in_use);
    slots_[slot].in_use = false;
    free_slots_.push_back(slot);
}

bool PifoScheduler::do_enqueue(const net::Packet& packet, net::TimeNs now) {
    const auto ref = buffer_.store(packet);
    if (!ref) return false;
    const RankSet ranks = rank_->on_arrival(packet, now);
    const std::uint32_t slot = allocate_slot(ranks.rank, *ref, packet.size_bytes);
    try {
        // Two-stage: wait in start order until eligible.
        if (start_queue_)
            start_queue_->insert(ranks.start, slot);
        else
            primary_->insert(ranks.rank, slot);
    } catch (...) {
        // A faulted insert must not leak: free the slot and the buffer
        // cell so a post-recovery retry re-stores the packet cleanly.
        release_slot(slot);
        buffer_.retrieve(*ref);
        throw;
    }
    if (start_queue_) promote_eligible(now);
    return true;
}

void PifoScheduler::promote_eligible(net::TimeNs now) {
    const std::uint64_t horizon = rank_->eligibility_horizon(now);
    while (const auto head = start_queue_->peek_min()) {
        if (head->tag > horizon) break;
        const auto moved = start_queue_->pop_min();
        primary_->insert(slots_[moved->payload].rank, moved->payload);
    }
}

std::optional<net::Packet> PifoScheduler::do_dequeue(net::TimeNs now) {
    if (start_queue_) {
        promote_eligible(now);
        if (primary_->empty() && !start_queue_->empty()) {
            // Under an exact eligibility clock every backlogged head has
            // S <= V(t), so an empty eligible set is quantization
            // rounding: force the head across rather than idle the link.
            const auto moved = start_queue_->pop_min();
            primary_->insert(slots_[moved->payload].rank, moved->payload);
        }
    }
    const auto entry = primary_->pop_min();
    if (!entry) return std::nullopt;
    const Pending& p = slots_[entry->payload];
    release_slot(entry->payload);
    const net::Packet packet = buffer_.retrieve(p.ref);
    rank_->on_service(packet, now, p.rank);
    return packet;
}

bool PifoScheduler::recover() {
    bool ok = primary_->recover();
    if (start_queue_) ok = start_queue_->recover() && ok;
    return ok;
}

bool PifoScheduler::has_packets() const {
    return !primary_->empty() || (start_queue_ && !start_queue_->empty());
}

std::size_t PifoScheduler::queued_packets() const {
    return primary_->size() + (start_queue_ ? start_queue_->size() : 0);
}

std::string PifoScheduler::name() const {
    return "PIFO-" + rank_->name() + "(" + primary_->name() + ")";
}

std::optional<std::uint32_t> PifoScheduler::peek_size(net::TimeNs now) {
    // Promotion is service-order-invariant (dequeue at the same `now`
    // promotes identically), so peeking may promote.
    if (start_queue_) promote_eligible(now);
    if (const auto head = primary_->peek_min())
        return slots_[head->payload].size_bytes;
    if (start_queue_) {
        // dequeue() would force-promote exactly this head and serve it.
        if (const auto head = start_queue_->peek_min())
            return slots_[head->payload].size_bytes;
    }
    return std::nullopt;
}

}  // namespace wfqs::sched_prog
