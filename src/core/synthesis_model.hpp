// Analytic area/frequency/power model of the sorter circuit — the
// substitute for the paper's Table II post-layout synthesis results
// (UMC 130-nm standard cells, Synopsys/Cadence flow), which cannot be
// reproduced without the PDK.
//
// Calibration constants are nominal 130-nm figures:
//   - one 2-input-gate delay unit ≈ 250 ps (including local wiring),
//   - SRAM ≈ 3.5 µm² per bit (single-port, incl. periphery),
//   - standard-cell logic ≈ 5.5 µm² per gate equivalent,
//   - SRAM access energy ≈ 0.05 pJ/bit, logic ≈ 0.8 pJ/GE/transition
//     with 0.15 average activity.
// Absolute numbers are indicative; the model's purpose is to reproduce
// Table II's *structure* (memory-dominated area, logic-dominated power,
// ~140-200 MHz clock → >35 Mpps → 40 Gb/s at 140-byte packets).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sharded_sorter.hpp"
#include "core/tag_sorter.hpp"
#include "matcher/matcher.hpp"

namespace wfqs::core {

struct SynthesisReport {
    // Structure
    std::uint64_t tree_memory_bits = 0;
    /// On-chip translation storage: the flat per-value SRAM for narrow
    /// geometries, or just the hot-cache SRAM when the config resolves to
    /// the tiered table (the bulk tier is off-chip, reported separately).
    std::uint64_t translation_memory_bits = 0;
    /// Off-chip (DRAM) bulk-tier footprint for tiered configs, sized to
    /// the live capacity rather than the 2^W value space; 0 when flat.
    std::uint64_t bulk_memory_bits = 0;
    std::uint64_t matcher_count = 0;
    double matcher_area_ge = 0.0;   ///< widest level's matcher, gate equivalents
    double logic_area_ge = 0.0;     ///< total logic incl. control estimate

    // Timing
    double matcher_delay_units = 0.0;    ///< critical path, gate-delay units
    double clock_period_ns = 0.0;
    double clock_mhz = 0.0;
    double cycles_per_tag = 4.0;  ///< initiation interval: max(levels+1, 4)

    // Derived performance (paper §IV)
    double mpps = 0.0;          ///< tags per second / 1e6 (4 cycles per tag)
    double gbps_at_140B = 0.0;  ///< line rate at the paper's 140-byte packets

    // Multi-bank scaling (1 for the plain circuit; see synthesize() below
    // for the sharded overload). Aggregate throughput saturates at one
    // tag per cycle once num_banks >= cycles_per_tag.
    unsigned num_banks = 1;
    double merge_comparator_ge = 0.0;  ///< (N-1)-comparator head-merge tree
    double bank_utilization = 1.0;     ///< busy fraction per bank at saturation
    double aggregate_mpps = 0.0;       ///< all banks, overlapped pipelines
    double aggregate_gbps_at_140B = 0.0;

    // Area / power model
    double memory_area_mm2 = 0.0;
    double logic_area_mm2 = 0.0;
    double total_area_mm2 = 0.0;
    double memory_power_mw = 0.0;
    double logic_power_mw = 0.0;
    double total_power_mw = 0.0;
};

/// Build the model for a sorter configuration, using `kind` for the node
/// matching circuits (the paper's silicon uses select & look-ahead).
SynthesisReport synthesize(const TagSorter::Config& config,
                           matcher::MatcherKind kind);

/// Multi-bank variant: memories and per-bank logic replicate N times, an
/// (N-1)-comparator merge tree is added for the head registers, and the
/// aggregate throughput model overlaps the bank pipelines —
/// clock * min(N / cycles_per_tag, 1). The clock itself is unchanged
/// (the merge tree is registered and off the tag datapath's critical
/// path). With num_banks == 1 the report equals the single-bank one.
/// (Named, not overloaded: both Config types brace-initialize alike.)
SynthesisReport synthesize_sharded(const ShardedConfig& config,
                                   matcher::MatcherKind kind);

/// Render the report as a Table II–style text table.
std::string format_synthesis_report(const SynthesisReport& report);

/// Render a bank-count sweep (one synthesize() per row) as a compact
/// scaling table: banks, area, power, Mpps, Gb/s.
std::string format_shard_scaling_table(const std::vector<SynthesisReport>& rows);

}  // namespace wfqs::core
