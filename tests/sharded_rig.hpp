// Test helpers for code that runs over both ShardedSorter bank types:
// TagSorter (the cycle model) and FfsSorter (host native).
#pragma once

#include <gtest/gtest.h>

#include "core/sharded_sorter.hpp"
#include "hw/simulation.hpp"

namespace wfqs::core {

/// Build a ShardedSorter<Bank>; only TagSorter banks use `sim`.
template <class Bank>
ShardedSorter<Bank> make_sharded(const ShardedConfig& config, hw::Simulation& sim) {
    if constexpr (ShardedSorter<Bank>::kModeled)
        return ShardedSorter<Bank>(config, sim);
    else
        return ShardedSorter<Bank>(config);
}

/// Run `body.template operator()<Bank>()` for TagSorter banks, then for
/// FfsSorter banks, each under a trace naming the bank type — one test
/// body, both banks.
template <class Body>
void for_each_bank_type(Body&& body) {
    {
        SCOPED_TRACE("TagSorter banks");
        body.template operator()<TagSorter>();
    }
    {
        SCOPED_TRACE("FfsSorter banks");
        body.template operator()<FfsSorter>();
    }
}

}  // namespace wfqs::core
