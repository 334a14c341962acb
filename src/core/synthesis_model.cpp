#include "core/synthesis_model.hpp"

#include <algorithm>
#include <bit>

#include "common/table.hpp"
#include "matcher/circuit.hpp"

namespace wfqs::core {
namespace {

// 130-nm calibration constants (see header).
constexpr double kGateDelayNs = 0.25;
constexpr double kSramUm2PerBit = 3.5;
constexpr double kLogicUm2PerGe = 5.5;
constexpr double kSramPjPerBit = 0.05;
constexpr double kLogicPjPerGeToggle = 0.8;
constexpr double kActivity = 0.15;
// Minimum SRAM random-access time at 130 nm: the clock cannot beat the
// node memories even when the matcher is tiny.
constexpr double kSramAccessNs = 2.0;
constexpr double kAvgPacketBytes = 140.0;
// Control logic (FSMs, registers, pipeline latches) on top of the
// matchers, as a multiple of the matcher area. The paper's layout shows
// "most of the logic ... along the right side" dwarfing the matchers.
constexpr double kControlOverhead = 6.0;
// Gate equivalents per bit of a registered two-input min comparator stage
// (compare + select + pipeline latch) in the head-merge tree.
constexpr double kComparatorGePerBit = 3.0;

}  // namespace

SynthesisReport synthesize(const TagSorter::Config& config,
                           matcher::MatcherKind kind) {
    SynthesisReport r;
    const tree::TreeGeometry& g = config.geometry;

    r.tree_memory_bits = g.total_memory_bits();
    const unsigned addr_bits = static_cast<unsigned>(
        64 - std::countl_zero(static_cast<std::uint64_t>(config.capacity)));
    // Translation storage follows the same flat/tiered resolution as the
    // sorter itself: narrow spaces keep the paper's per-value SRAM, wide
    // spaces put only the hot cache on chip and size the bulk tier (off
    // chip, DRAM) to the live capacity instead of the 2^W value space.
    const bool tiered = config.tiered_table.value_or(
        g.tag_bits() > storage::TranslationTable::kFlatTagBitsMax);
    if (tiered) {
        const unsigned line_bits =
            1 + addr_bits + (g.tag_bits() - config.table_hot_bits);
        r.translation_memory_bits =
            (std::uint64_t{1} << config.table_hot_bits) * line_bits;
        r.bulk_memory_bits =
            static_cast<std::uint64_t>(config.capacity) * (g.tag_bits() + addr_bits);
    } else {
        r.translation_memory_bits = g.capacity() * (addr_bits + 1);
    }

    // One matching circuit per tree level (§III-A: "three identical
    // matching circuits are required" — heterogeneous geometries size
    // each level's matcher to that level's fan-out; the widest level
    // sets the critical path).
    double total_matcher_ge = 0.0;
    for (unsigned l = 0; l < g.levels; ++l) {
        const matcher::MatcherCircuit circuit =
            matcher::build_matcher(kind, std::max(2u, g.branching(l)));
        const double area = circuit.netlist().area_gate_equivalents();
        total_matcher_ge += area;
        r.matcher_area_ge = std::max(r.matcher_area_ge, area);
        r.matcher_delay_units =
            std::max(r.matcher_delay_units, circuit.netlist().critical_path_delay());
    }
    r.matcher_count = g.levels;
    r.logic_area_ge = total_matcher_ge * (1.0 + kControlOverhead);

    // The clock must accommodate one node match plus node-memory access in
    // a cycle; the matcher dominates for wide nodes, the SRAM for narrow.
    r.clock_period_ns =
        std::max(r.matcher_delay_units * kGateDelayNs, kSramAccessNs);
    r.clock_mhz = 1000.0 / r.clock_period_ns;

    // One tag per max(levels+1, 4) cycles: the tree walk plus write-back
    // must not exceed the 4-cycle list FSM (the paper's 3-level tree hits
    // exactly 4; deeper trees stretch the initiation interval).
    r.cycles_per_tag = std::max<double>(g.levels + 1.0, 4.0);
    r.mpps = r.clock_mhz / r.cycles_per_tag;
    r.gbps_at_140B = r.mpps * 1e6 * kAvgPacketBytes * 8.0 / 1e9;

    const double on_chip_bits =
        static_cast<double>(r.tree_memory_bits + r.translation_memory_bits);
    r.memory_area_mm2 = on_chip_bits * kSramUm2PerBit / 1e6;
    r.logic_area_mm2 = r.logic_area_ge * kLogicUm2PerGe / 1e6;
    r.total_area_mm2 = r.memory_area_mm2 + r.logic_area_mm2;

    // Power at the model clock: per cycle the pipeline touches roughly one
    // node word per level plus one translation entry.
    std::uint64_t node_bits_touched = 0;
    for (unsigned l = 0; l < g.levels; ++l) node_bits_touched += g.branching(l);
    const double bits_touched_per_cycle =
        static_cast<double>(node_bits_touched + addr_bits + 1);
    r.memory_power_mw =
        bits_touched_per_cycle * kSramPjPerBit * r.clock_mhz * 1e6 / 1e9;
    r.logic_power_mw = r.logic_area_ge * kActivity * kLogicPjPerGeToggle *
                       r.clock_mhz * 1e6 / 1e9;
    r.total_power_mw = r.memory_power_mw + r.logic_power_mw;
    r.aggregate_mpps = r.mpps;
    r.aggregate_gbps_at_140B = r.gbps_at_140B;
    return r;
}

SynthesisReport synthesize_sharded(const ShardedConfig& config,
                                   matcher::MatcherKind kind) {
    SynthesisReport r = synthesize(config.bank, kind);
    const unsigned n = config.num_banks;
    if (n <= 1) return r;

    // Structure replicates per bank.
    r.num_banks = n;
    r.tree_memory_bits *= n;
    r.translation_memory_bits *= n;
    r.bulk_memory_bits *= n;
    r.matcher_count *= n;
    r.logic_area_ge *= n;

    // Head-merge tree: N-1 two-input min comparators over the global tag
    // width (bank-local bits plus the log2(N) interleave bits).
    const unsigned global_tag_bits =
        config.bank.geometry.tag_bits() +
        static_cast<unsigned>(std::countr_zero(std::uint64_t{n}));
    r.merge_comparator_ge =
        static_cast<double>(n - 1) * global_tag_bits * kComparatorGePerBit;
    r.logic_area_ge += r.merge_comparator_ge;

    // Clock and per-bank initiation interval are untouched; the aggregate
    // rate overlaps the pipelines and saturates at one tag per cycle.
    r.aggregate_mpps =
        r.clock_mhz * std::min(static_cast<double>(n) / r.cycles_per_tag, 1.0);
    r.aggregate_gbps_at_140B = r.aggregate_mpps * 1e6 * kAvgPacketBytes * 8.0 / 1e9;

    // Area scales with the structure; dynamic power scales with how busy
    // each bank actually is at the saturated aggregate rate (once N
    // exceeds the II, extra banks sit idle part of the time).
    r.bank_utilization =
        r.aggregate_mpps * r.cycles_per_tag / (static_cast<double>(n) * r.clock_mhz);
    r.memory_area_mm2 *= n;
    r.logic_area_mm2 = r.logic_area_ge * kLogicUm2PerGe / 1e6;
    r.total_area_mm2 = r.memory_area_mm2 + r.logic_area_mm2;
    r.memory_power_mw *= n * r.bank_utilization;
    r.logic_power_mw = r.logic_area_ge * kActivity * kLogicPjPerGeToggle *
                       r.clock_mhz * 1e6 / 1e9 * r.bank_utilization;
    r.total_power_mw = r.memory_power_mw + r.logic_power_mw;
    return r;
}

std::string format_synthesis_report(const SynthesisReport& r) {
    TextTable t({"metric", "value"});
    t.add_row({"tree memory (bits)", TextTable::num(r.tree_memory_bits)});
    t.add_row({"translation table (bits)", TextTable::num(r.translation_memory_bits)});
    if (r.bulk_memory_bits > 0)
        t.add_row({"bulk tier, off-chip (bits)", TextTable::num(r.bulk_memory_bits)});
    t.add_row({"matching circuits", TextTable::num(r.matcher_count)});
    t.add_row({"matcher area (GE)", TextTable::num(r.matcher_area_ge, 0)});
    t.add_row({"logic area (GE, incl. control)", TextTable::num(r.logic_area_ge, 0)});
    t.add_row({"memory area (mm^2)", TextTable::num(r.memory_area_mm2, 3)});
    t.add_row({"logic area (mm^2)", TextTable::num(r.logic_area_mm2, 3)});
    t.add_row({"total area (mm^2)", TextTable::num(r.total_area_mm2, 3)});
    t.add_row({"clock period (ns)", TextTable::num(r.clock_period_ns, 2)});
    t.add_row({"clock (MHz)", TextTable::num(r.clock_mhz, 1)});
    t.add_row({"cycles per tag", TextTable::num(r.cycles_per_tag, 0)});
    t.add_row({"throughput (Mpps)", TextTable::num(r.mpps, 1)});
    t.add_row({"line rate @140B (Gb/s)", TextTable::num(r.gbps_at_140B, 1)});
    t.add_row({"memory power (mW)", TextTable::num(r.memory_power_mw, 2)});
    t.add_row({"logic power (mW)", TextTable::num(r.logic_power_mw, 2)});
    t.add_row({"total power (mW)", TextTable::num(r.total_power_mw, 2)});
    if (r.num_banks > 1) {
        t.add_row({"banks", TextTable::num(static_cast<std::int64_t>(r.num_banks))});
        t.add_row({"merge tree (GE)", TextTable::num(r.merge_comparator_ge, 0)});
        t.add_row({"bank utilization", TextTable::num(r.bank_utilization, 2)});
        t.add_row({"aggregate (Mpps)", TextTable::num(r.aggregate_mpps, 1)});
        t.add_row({"aggregate @140B (Gb/s)",
                   TextTable::num(r.aggregate_gbps_at_140B, 1)});
    }
    return t.render();
}

std::string format_shard_scaling_table(const std::vector<SynthesisReport>& rows) {
    TextTable t({"banks", "area (mm^2)", "power (mW)", "cycles/tag", "agg Mpps",
                 "agg Gb/s @140B", "Mpps/mm^2"});
    for (const SynthesisReport& r : rows) {
        t.add_row({TextTable::num(static_cast<std::int64_t>(r.num_banks)), TextTable::num(r.total_area_mm2, 3),
                   TextTable::num(r.total_power_mw, 2),
                   TextTable::num(r.cycles_per_tag, 0),
                   TextTable::num(r.aggregate_mpps, 1),
                   TextTable::num(r.aggregate_gbps_at_140B, 1),
                   TextTable::num(r.aggregate_mpps / r.total_area_mm2, 1)});
    }
    return t.render();
}

}  // namespace wfqs::core
