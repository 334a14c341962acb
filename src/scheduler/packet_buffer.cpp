#include "scheduler/packet_buffer.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/bits.hpp"

namespace wfqs::scheduler {

SharedPacketBuffer::SharedPacketBuffer() : SharedPacketBuffer(Config{}) {}

SharedPacketBuffer::SharedPacketBuffer(const Config& config)
    : cell_bytes_(config.cell_bytes),
      total_cells_(config.total_bytes / config.cell_bytes) {
    WFQS_REQUIRE(config.cell_bytes >= 16, "cells must hold at least a header");
    WFQS_REQUIRE(total_cells_ >= 2, "buffer too small for any packet");
}

std::size_t SharedPacketBuffer::cells_for(std::uint32_t bytes) const {
    return static_cast<std::size_t>(ceil_div(std::max<std::uint32_t>(bytes, 1),
                                             static_cast<std::uint32_t>(cell_bytes_)));
}

std::optional<BufferRef> SharedPacketBuffer::store(const net::Packet& packet) {
    const std::size_t need = cells_for(packet.size_bytes);
    if (total_cells_ - used_cells_ < need) {
        ++drops_;
        return std::nullopt;
    }
    BufferRef ref;
    if (!free_slots_.empty()) {
        ref = free_slots_.back();
        free_slots_.pop_back();
    } else {
        ref = static_cast<BufferRef>(slots_.size());
        slots_.emplace_back();
    }
    slots_[ref] = Slot{packet, true};
    used_cells_ += need;
    ++stored_packets_;
    peak_used_cells_ = std::max(peak_used_cells_, used_cells_);
    return ref;
}

const net::Packet& SharedPacketBuffer::peek(BufferRef ref) const {
    WFQS_ASSERT_MSG(holds(ref), "peek of an address that is not a stored packet head");
    return slots_[ref].packet;
}

net::Packet SharedPacketBuffer::retrieve(BufferRef ref) {
    WFQS_ASSERT_MSG(holds(ref), "retrieve of an address that is not a stored packet head");
    Slot& slot = slots_[ref];
    slot.in_use = false;
    free_slots_.push_back(ref);
    used_cells_ -= cells_for(slot.packet.size_bytes);
    --stored_packets_;
    return slot.packet;
}

}  // namespace wfqs::scheduler
