#include "sched_prog/pifo_scheduler.hpp"

#include <string>

#include "common/assert.hpp"
#include "fault/errors.hpp"

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

void PifoScheduler::expect_held(baselines::TagQueue* queue, std::uint32_t payload) {
    if (buffer_.holds(payload)) return;
    if (queue) queue->pop_min();
    throw fault::IntegrityError(fault::IntegrityKind::kUnknownPayload,
                                "sorter returned payload " + std::to_string(payload) +
                                    ", which names no stored packet");
}

bool PifoScheduler::do_enqueue(const net::Packet& packet, net::TimeNs now) {
    const auto ref = buffer_.store(packet);
    if (!ref) return false;
    // A retry of a faulted insert reuses its ranks: on_arrival already
    // charged the flow's finish tag and the GPS backlog for this packet.
    const RankSet ranks = retry_ && retry_->first == packet.id
                              ? retry_->second
                              : rank_->on_arrival(packet, now);
    retry_.reset();
    if (*ref >= rank_of_.size()) rank_of_.resize(*ref + 1);
    rank_of_[*ref] = ranks.rank;
    try {
        // Two-stage: wait in start order until eligible.
        if (start_queue_)
            start_queue_->insert(ranks.start, *ref);
        else
            primary_->insert(ranks.rank, *ref);
    } catch (...) {
        // A faulted insert must not leak: free the buffer slot so a
        // post-recovery retry re-stores the packet cleanly.
        buffer_.retrieve(*ref);
        retry_.emplace(packet.id, ranks);
        throw;
    }
    if (start_queue_) {
        // The packet is stored, so the enqueue has succeeded: a promotion
        // fault must not reach the driver, whose retry would store the
        // packet twice. The faulted entry stays at the start-queue head,
        // and the next dequeue promotes it again; a lasting fault surfaces
        // there, to the driver's recovery. A head whose payload names no
        // stored packet is already discarded, so it cannot recur: its
        // error is held and raised by the next dequeue or peek instead.
        try {
            promote_eligible(now);
        } catch (const fault::IntegrityError& e) {
            if (e.kind() == fault::IntegrityKind::kUnknownPayload) phantom_ = e;
        } catch (const fault::FaultError&) {
        }
    }
    return true;
}

void PifoScheduler::raise_held_phantom() {
    if (!phantom_) return;
    const fault::IntegrityError e = *phantom_;
    phantom_.reset();
    throw e;
}

void PifoScheduler::promote_head(const baselines::QueueEntry& head) {
    expect_held(start_queue_.get(), head.payload);
    // Insert before popping, so a faulted insert loses nothing.
    primary_->insert(rank_of_[head.payload], head.payload);
    start_queue_->pop_min();
}

void PifoScheduler::promote_eligible(net::TimeNs now) {
    const std::uint64_t horizon = rank_->eligibility_horizon(now);
    while (const auto head = start_queue_->peek_min()) {
        if (head->tag > horizon) break;
        promote_head(*head);
    }
}

std::optional<net::Packet> PifoScheduler::do_dequeue(net::TimeNs now) {
    raise_held_phantom();
    if (start_queue_) {
        promote_eligible(now);
        if (primary_->empty() && !start_queue_->empty()) {
            // Under an exact eligibility clock every backlogged head has
            // S <= V(t), so an empty eligible set is quantization
            // rounding: force the head across rather than idle the link.
            promote_head(*start_queue_->peek_min());
        }
    }
    const auto entry = primary_->pop_min();
    if (!entry) return std::nullopt;
    expect_held(nullptr, entry->payload);
    const net::Packet packet = buffer_.retrieve(entry->payload);
    rank_->on_service(packet, now, rank_of_[entry->payload]);
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
    raise_held_phantom();
    // Promotion is service-order-invariant (dequeue at the same `now`
    // promotes identically), so peeking may promote.
    if (start_queue_) promote_eligible(now);
    if (const auto head = primary_->peek_min()) {
        expect_held(primary_.get(), head->payload);
        return buffer_.peek(head->payload).size_bytes;
    }
    if (start_queue_) {
        // dequeue() would force-promote exactly this head and serve it.
        if (const auto head = start_queue_->peek_min()) {
            expect_held(start_queue_.get(), head->payload);
            return buffer_.peek(head->payload).size_bytes;
        }
    }
    return std::nullopt;
}

}  // namespace wfqs::sched_prog
