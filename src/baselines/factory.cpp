#include "baselines/factory.hpp"

#include <algorithm>
#include <bit>

#include "baselines/binning_queue.hpp"
#include "baselines/calendar_queue.hpp"
#include "baselines/cam_queue.hpp"
#include "baselines/heap_queue.hpp"
#include "baselines/skiplist_queue.hpp"
#include "baselines/sorted_list_queue.hpp"
#include "baselines/tcq_queue.hpp"
#include "baselines/veb_queue.hpp"
#include "common/assert.hpp"
#include "common/bits.hpp"
#include "core/sharded_sorter.hpp"
#include "hw/simulation.hpp"

namespace wfqs::baselines {
namespace {

/// A sharded sorter behind the TagQueue interface, over either bank
/// type: the paper's circuit (TagSorter, the default) or the host-native
/// FfsSorter. QueueParams::num_banks scales it out; at one bank the
/// sharding layer is a pass-through, bit- and cycle-identical to a bare
/// bank. The two backends differ only in the memory inventory
/// (simulation() is null on ffs), the access count (the circuit's real
/// SRAM traffic — register reads are free, as in the silicon — versus one
/// access per op), and the payload width.
template <class Bank>
class SorterTagQueue final : public TagQueue {
    static constexpr bool kModeled = core::ShardedSorter<Bank>::kModeled;

public:
    SorterTagQueue(tree::TreeGeometry geometry, std::size_t capacity,
                   unsigned num_banks, std::string name, std::string complexity)
        : sim_(kModeled ? std::make_unique<hw::Simulation>() : nullptr),
          sorter_(make_sorter(sharded_config(geometry, capacity, num_banks), sim_.get())),
          name_(num_banks > 1 ? name + " x" + std::to_string(num_banks)
                              : std::move(name)),
          complexity_(std::move(complexity)) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        OpScope op(*this, OpScope::Kind::Insert);
        const std::uint64_t mark = access_mark();
        sorter_.insert(tag, payload);
        touch(accesses_since(mark, 1));
    }

    std::optional<QueueEntry> pop_min() override {
        if (sorter_.empty()) return std::nullopt;
        OpScope op(*this, OpScope::Kind::Pop);
        const std::uint64_t mark = access_mark();
        const auto popped = sorter_.pop_min();
        touch(accesses_since(mark, 1));
        return QueueEntry{popped->tag, popped->payload};
    }

    /// Batched entry points: one stats bracket and one sorter dispatch
    /// per chunk (on the model, the inventory-wide SramStats sweep behind
    /// the access count is the dominant host cost of a scalar op). Cycle
    /// accounting in the sorter is per-op and identical to the scalar
    /// path.
    static constexpr std::size_t kBatchChunk = 64;

    void insert_batch(const QueueEntry* entries, std::size_t n) override {
        const std::uint64_t mark = access_mark();
        const std::size_t before = sorter_.size();
        core::SortedTag buf[kBatchChunk];
        std::size_t done = 0;
        try {
            while (done < n) {
                const std::size_t chunk = std::min(n - done, kBatchChunk);
                for (std::size_t i = 0; i < chunk; ++i)
                    buf[i] = core::SortedTag{entries[done + i].tag, entries[done + i].payload};
                sorter_.insert_batch(buf, chunk);
                done += chunk;
            }
        } catch (...) {
            // A throw leaves the sorter's applied prefix in place; count
            // exactly that prefix, then let the caller see the error.
            const std::size_t applied = sorter_.size() - before;
            record_batch(OpScope::Kind::Insert, applied, accesses_since(mark, applied));
            throw;
        }
        record_batch(OpScope::Kind::Insert, n, accesses_since(mark, n));
    }

    std::size_t pop_batch(QueueEntry* out, std::size_t max_n) override {
        const std::uint64_t mark = access_mark();
        core::SortedTag buf[kBatchChunk];
        std::size_t total = 0;
        while (total < max_n) {
            const std::size_t got =
                sorter_.pop_batch(buf, std::min(max_n - total, kBatchChunk));
            if (got == 0) break;
            for (std::size_t i = 0; i < got; ++i)
                out[total + i] = QueueEntry{buf[i].tag, buf[i].payload};
            total += got;
        }
        record_batch(OpScope::Kind::Pop, total, accesses_since(mark, total));
        return total;
    }

    std::optional<QueueEntry> peek_min() override {
        const auto min = sorter_.peek_min();
        if (!min) return std::nullopt;
        return QueueEntry{min->tag, min->payload};
    }

    std::size_t size() const override { return sorter_.size(); }
    std::string name() const override { return name_; }
    std::string model() const override { return "sort"; }
    std::string complexity() const override { return complexity_; }

    bool recover() override { return sorter_.recover(); }

    hw::Simulation* simulation() override { return sim_.get(); }

private:
    static unsigned payload_bits_for(const tree::TreeGeometry& g, std::size_t capacity) {
        // FfsSorter keeps payloads in their own field: raw 32-bit words.
        if constexpr (!kModeled) return 32;
        const unsigned next_bits = static_cast<unsigned>(
            64 - std::countl_zero(static_cast<std::uint64_t>(capacity)));
        const unsigned avail = 64 - g.tag_bits() - next_bits;
        WFQS_REQUIRE(avail >= 16, "tree too wide to pack payload into list entries");
        return std::min(avail, 32u);
    }

    static core::ShardedConfig sharded_config(const tree::TreeGeometry& geometry,
                                              std::size_t capacity,
                                              unsigned num_banks) {
        // Per-bank slot budget: split rounding up, so the aggregate never
        // shrinks below the requested total.
        const std::size_t n = std::max(num_banks, 1u);
        const std::size_t per_bank = std::max<std::size_t>((capacity + n - 1) / n, 1);
        return {{geometry, per_bank, payload_bits_for(geometry, per_bank)}, num_banks};
    }

    static core::ShardedSorter<Bank> make_sorter(const core::ShardedConfig& config,
                                                 hw::Simulation* sim) {
        if constexpr (kModeled)
            return core::ShardedSorter<Bank>(config, *sim);
        else
            return core::ShardedSorter<Bank>(config);
    }

    /// Access-count bracket: the SRAM traffic between the mark and now on
    /// the model; one access per op on ffs.
    std::uint64_t access_mark() const {
        if constexpr (kModeled) return sim_->total_memory_stats().total();
        return 0;
    }
    std::uint64_t accesses_since(std::uint64_t mark, std::uint64_t ops) const {
        if constexpr (kModeled) return sim_->total_memory_stats().total() - mark;
        return ops;
    }

    std::unique_ptr<hw::Simulation> sim_;  ///< null on ffs
    core::ShardedSorter<Bank> sorter_;
    std::string name_;
    std::string complexity_;
};

tree::TreeGeometry multibit_geometry(unsigned range_bits) {
    // 4-bit literals as in the silicon; enough levels to cover the range.
    const unsigned levels = static_cast<unsigned>(ceil_div(range_bits, 4));
    return tree::TreeGeometry{levels, 4};
}

std::unique_ptr<TagQueue> make_sorter_queue(const QueueParams& params,
                                            tree::TreeGeometry geometry,
                                            std::string name, std::string complexity) {
    if (params.backend == SorterBackend::kFfs)
        return std::make_unique<SorterTagQueue<core::FfsSorter>>(
            geometry, params.capacity, params.num_banks, std::move(name) + " [ffs]",
            std::move(complexity));
    return std::make_unique<SorterTagQueue<core::TagSorter>>(
        geometry, params.capacity, params.num_banks, std::move(name),
        std::move(complexity));
}

}  // namespace

std::string backend_name(SorterBackend backend) {
    return backend == SorterBackend::kFfs ? "ffs" : "model";
}

std::optional<SorterBackend> backend_from_name(std::string_view name) {
    if (name == "model") return SorterBackend::kModel;
    if (name == "ffs") return SorterBackend::kFfs;
    return std::nullopt;
}

const std::vector<SorterBackend>& all_sorter_backends() {
    static const std::vector<SorterBackend> kBackends = {SorterBackend::kModel,
                                                         SorterBackend::kFfs};
    return kBackends;
}

std::unique_ptr<TagQueue> make_tag_queue(QueueKind kind, const QueueParams& params) {
    switch (kind) {
        case QueueKind::MultibitTree:
            return make_sorter_queue(params, multibit_geometry(params.range_bits),
                                     "multi-bit tree", "O(W/k)");
        case QueueKind::BinaryTree:
            return make_sorter_queue(params, tree::TreeGeometry::binary(params.range_bits),
                                     "binary tree", "O(W)");
        case QueueKind::Heap:
            return std::make_unique<HeapTagQueue>();
        case QueueKind::SortedList:
            return std::make_unique<SortedListQueue>();
        case QueueKind::Skiplist:
            return std::make_unique<SkiplistQueue>();
        case QueueKind::Calendar:
            return std::make_unique<CalendarQueue>();
        case QueueKind::Tcq:
            return std::make_unique<TcqQueue>(params.range_bits);
        case QueueKind::Binning:
            return std::make_unique<BinningQueue>(params.range_bits, 64);
        case QueueKind::BinaryCam:
            return std::make_unique<BinaryCamQueue>(params.range_bits);
        case QueueKind::Tcam:
            return std::make_unique<TcamQueue>(params.range_bits);
        case QueueKind::Veb:
            return std::make_unique<VebQueue>(params.range_bits);
    }
    WFQS_ASSERT_MSG(false, "unknown queue kind");
    return nullptr;
}

const std::vector<QueueKind>& all_queue_kinds() {
    static const std::vector<QueueKind> kinds = {
        QueueKind::MultibitTree, QueueKind::BinaryTree, QueueKind::Heap,
        QueueKind::SortedList,   QueueKind::Skiplist,   QueueKind::Calendar,
        QueueKind::Tcq,          QueueKind::Binning,    QueueKind::BinaryCam,
        QueueKind::Tcam,         QueueKind::Veb,
    };
    return kinds;
}

std::string queue_kind_name(QueueKind kind) {
    return make_tag_queue(kind, {12, 64})->name();
}

}  // namespace wfqs::baselines
