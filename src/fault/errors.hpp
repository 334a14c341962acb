// Typed error hierarchy for the fault/integrity subsystem.
//
// The seed model treated every anomaly as "impossible in hardware" and
// aborted. With a fault model attached (src/fault/injector.hpp), many of
// those states are *reachable* — an SEU can break a linked-list pointer
// or clear a tree marker — so the anomalies that injected faults can
// produce throw typed errors instead. Callers (the scrubber, the
// simulation driver, the fault-soak harness) catch `FaultError` and run
// recovery; genuinely-unreachable C++ logic bugs keep WFQS_ASSERT.
//
//   FaultError                   — base of everything recoverable here
//   ├── SramAddressError         — access outside a memory block
//   ├── SramPortConflict         — port budget exceeded in one cycle
//   ├── SramInventoryError       — block exceeds the simulated inventory
//   └── IntegrityError           — corrupted circuit state detected
//       └── UncorrectableEccError — SECDED double-bit / parity word
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace wfqs::fault {

class FaultError : public std::runtime_error {
public:
    explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

/// Read/write/flash_clear outside a memory block's address space —
/// typically a corrupted pointer chased into the void.
class SramAddressError : public FaultError {
public:
    SramAddressError(std::string memory, std::size_t addr, const std::string& what)
        : FaultError(what), memory_(std::move(memory)), addr_(addr) {}

    const std::string& memory() const { return memory_; }
    std::size_t addr() const { return addr_; }

private:
    std::string memory_;
    std::size_t addr_;
};

/// More accesses to one memory in a single cycle than it has ports —
/// a bus conflict in silicon.
class SramPortConflict : public FaultError {
public:
    SramPortConflict(std::string memory, const std::string& what)
        : FaultError(what), memory_(std::move(memory)) {}

    const std::string& memory() const { return memory_; }

private:
    std::string memory_;
};

/// A requested memory block is larger than the simulated SRAM inventory
/// supports — e.g. a degenerate binary tree over a 32-bit tag space
/// would need a 2^31-word level. Thrown at construction, before any
/// allocation is attempted, so an impossible geometry fails with a
/// typed, catchable error instead of an allocation failure.
class SramInventoryError : public FaultError {
public:
    SramInventoryError(std::string memory, std::uint64_t requested_words,
                       std::uint64_t limit_words)
        : FaultError("SRAM '" + memory + "' exceeds the simulated inventory: " +
                     std::to_string(requested_words) + " words requested, " +
                     std::to_string(limit_words) + " available per block"),
          memory_(std::move(memory)),
          requested_words_(requested_words),
          limit_words_(limit_words) {}

    const std::string& memory() const { return memory_; }
    std::uint64_t requested_words() const { return requested_words_; }
    std::uint64_t limit_words() const { return limit_words_; }

private:
    std::string memory_;
    std::uint64_t requested_words_;
    std::uint64_t limit_words_;
};

/// What kind of corruption an IntegrityError reports. Coarse-grained —
/// the audit report (fault/audit.hpp) carries the per-issue detail.
enum class IntegrityKind {
    kEccUncorrectable,    ///< protection detected an unfixable word
    kBrokenLink,          ///< linked-list pointer chain is inconsistent
    kFreeList,            ///< empty (free) list chain is inconsistent
    kTranslationMissing,  ///< marked value without a translation entry
    kTranslationDangling, ///< translation entry pointing outside the store
    kTreeInvariant,       ///< marked tree node with no marked child, etc.
    kTagOrder,            ///< stored list is no longer sorted
    kUnknownPayload,      ///< sorter returned a payload nothing was stored under
};

inline const char* to_string(IntegrityKind kind) {
    switch (kind) {
        case IntegrityKind::kEccUncorrectable: return "ecc-uncorrectable";
        case IntegrityKind::kBrokenLink: return "broken-link";
        case IntegrityKind::kFreeList: return "free-list";
        case IntegrityKind::kTranslationMissing: return "translation-missing";
        case IntegrityKind::kTranslationDangling: return "translation-dangling";
        case IntegrityKind::kTreeInvariant: return "tree-invariant";
        case IntegrityKind::kTagOrder: return "tag-order";
        case IntegrityKind::kUnknownPayload: return "unknown-payload";
    }
    return "unknown";
}

/// Corrupted circuit state detected on the datapath. The operation that
/// threw may have partially completed (hardware has no transactions);
/// recovery is a scrub — see fault::Scrubber.
class IntegrityError : public FaultError {
public:
    IntegrityError(IntegrityKind kind, const std::string& what)
        : FaultError(std::string(to_string(kind)) + ": " + what), kind_(kind) {}

    IntegrityKind kind() const { return kind_; }

private:
    IntegrityKind kind_;
};

/// The word protection detected an error it cannot correct (SECDED
/// double-bit flip, or any parity mismatch — parity only detects).
class UncorrectableEccError : public IntegrityError {
public:
    UncorrectableEccError(std::string memory, std::size_t addr)
        : IntegrityError(IntegrityKind::kEccUncorrectable,
                         "uncorrectable word in '" + memory + "' at address " +
                             std::to_string(addr)),
          memory_(std::move(memory)),
          addr_(addr) {}

    const std::string& memory() const { return memory_; }
    std::size_t addr() const { return addr_; }

private:
    std::string memory_;
    std::size_t addr_;
};

}  // namespace wfqs::fault
