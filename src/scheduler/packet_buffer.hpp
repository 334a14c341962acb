// Shared packet buffer — the middle block of the scheduler architecture
// (Fig. 1; ref [9] "a shared buffer architecture for a gigabit ethernet
// packet switch").
//
// Packets of any size share one memory pool of fixed-size cells, like
// the referenced shared-buffer switch: a packet occupies
// ceil(size / cell) cells, a store is refused (tail drop) when the free
// cells cannot hold it, and the address the sorter carries next to the
// tag names the stored packet. In ref [9] the cells are chained by
// next-pointers and retrieval walks the chain; that walk is a cost of
// the modeled hardware, not of this host model, which keeps the cell
// pool as a counter and each stored packet in one head slot. Slots come
// from a LIFO free list, so refs are small, dense and reused.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"

namespace wfqs::scheduler {

using BufferRef = std::uint32_t;

class SharedPacketBuffer {
public:
    struct Config {
        std::size_t total_bytes = 4 << 20;  ///< pool size
        std::size_t cell_bytes = 64;
    };

    SharedPacketBuffer();
    explicit SharedPacketBuffer(const Config& config);

    /// Store a packet; returns its ref, or nullopt when the free cells
    /// cannot hold it (tail drop).
    std::optional<BufferRef> store(const net::Packet& packet);

    /// Retrieve and free a stored packet.
    net::Packet retrieve(BufferRef ref);

    /// Inspect a stored packet without freeing it (the schedulers' header
    /// lookup, e.g. DRR checking the head-of-line size).
    const net::Packet& peek(BufferRef ref) const;

    /// Whether `ref` names a packet stored and not yet retrieved. Refs
    /// that come back from a sorter are checked with this before use: a
    /// corrupted sorter can return a payload that was never stored.
    bool holds(BufferRef ref) const { return ref < slots_.size() && slots_[ref].in_use; }

    std::size_t stored_packets() const { return stored_packets_; }
    std::size_t used_cells() const { return used_cells_; }
    std::size_t total_cells() const { return total_cells_; }
    std::uint64_t drops() const { return drops_; }
    std::size_t peak_used_cells() const { return peak_used_cells_; }

private:
    struct Slot {
        net::Packet packet;
        bool in_use = false;
    };
    std::size_t cells_for(std::uint32_t bytes) const;

    std::size_t cell_bytes_;
    std::size_t total_cells_;
    std::size_t used_cells_ = 0;
    std::vector<Slot> slots_;
    std::vector<BufferRef> free_slots_;
    std::size_t stored_packets_ = 0;
    std::size_t peak_used_cells_ = 0;
    std::uint64_t drops_ = 0;
};

}  // namespace wfqs::scheduler
