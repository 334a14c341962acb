// Tests for online resharding: live bank add/remove through the
// ReshardController, incremental fenced-bank drains, stolen-cycle
// accounting, load-aware rebalancing, degraded-mode fencing in
// recover(), and the exact flow-hash full() contract (capacity spill).
// The lifecycle tests run on TagSorter and FfsSorter banks alike; the
// cycle accounting is model-only.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "core/reshard.hpp"
#include "core/sharded_sorter.hpp"
#include "hw/simulation.hpp"
#include "ref/ref_sorter.hpp"
#include "sharded_rig.hpp"

namespace wfqs::core {
namespace {

ShardedConfig flowhash_config(unsigned num_banks, std::size_t bank_capacity = 4096) {
    ShardedConfig cfg;
    cfg.bank.capacity = bank_capacity;
    cfg.num_banks = num_banks;
    cfg.select = BankSelect::kFlowHash;
    return cfg;
}

/// A flow key that bank_for routes to `bank` on an otherwise-empty
/// sorter (no spill in play, so this is the flow's primary bank).
template <class Bank>
std::uint64_t key_for_bank(const ShardedSorter<Bank>& s, unsigned bank) {
    for (std::uint64_t key = 0; key < 4096; ++key)
        if (s.bank_for(0, key) == bank) return key;
    ADD_FAILURE() << "no flow key found for bank " << bank;
    return 0;
}

/// Pop everything and require the exact sorted multiset `want`.
template <class Bank>
void expect_drains_to(ShardedSorter<Bank>& s, std::vector<std::uint64_t> want) {
    std::sort(want.begin(), want.end());
    for (const std::uint64_t tag : want) {
        const auto got = s.pop_min();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->tag, tag);
    }
    EXPECT_TRUE(s.empty());
}

TEST(Reshard, AddBankOnline) {
    for_each_bank_type([]<class Bank>() {
        hw::Simulation sim;
        auto s = make_sharded<Bank>(flowhash_config(2), sim);
        ReshardController<Bank> ctl(s);

        std::vector<std::uint64_t> tags;
        for (std::uint64_t t = 0; t < 16; ++t) {
            s.insert(t, 0, t);
            tags.push_back(t);
        }

        const auto added = ctl.add_bank();
        ASSERT_TRUE(added.has_value());
        EXPECT_EQ(*added, 2u);
        EXPECT_EQ(s.num_banks(), 3u);
        EXPECT_EQ(s.active_banks(), 3u);
        EXPECT_EQ(ctl.stats().banks_added, 1u);

        // The new bank is routable immediately: some flow key lands there.
        const std::uint64_t key = key_for_bank(s, 2);
        for (std::uint64_t t = 16; t < 24; ++t) {
            s.insert(t, 0, key);
            tags.push_back(t);
        }
        EXPECT_GT(s.bank(2).size(), 0u);
        expect_drains_to(s, tags);
    });
}

TEST(Reshard, RemoveBankDrainsWithoutLoss) {
    for_each_bank_type([]<class Bank>() {
        hw::Simulation sim;
        auto s = make_sharded<Bank>(flowhash_config(4), sim);
        ReshardController<Bank> ctl(s);

        std::vector<std::uint64_t> tags;
        for (std::uint64_t t = 0; t < 48; ++t) {
            s.insert(t, 0, t);
            tags.push_back(t);
        }
        // Pick a bank that actually holds entries.
        unsigned victim = 0;
        while (s.bank(victim).empty()) ++victim;
        const std::size_t victim_entries = s.bank(victim).size();

        ASSERT_TRUE(ctl.remove_bank(victim));
        EXPECT_EQ(s.bank_state(victim), BankState::kDraining);
        EXPECT_EQ(s.active_banks(), 3u);
        EXPECT_TRUE(ctl.migrating());

        // Datapath ops steal one migration slot each until the drain is
        // done.
        std::uint64_t next = 48;
        while (ctl.migrating()) {
            s.insert(next, 0, next);
            tags.push_back(next);
            ++next;
            ASSERT_LT(next, 48u + 4 * victim_entries) << "drain never completed";
        }
        EXPECT_EQ(s.bank_state(victim), BankState::kDetached);
        EXPECT_TRUE(s.bank(victim).empty());
        EXPECT_GE(ctl.stats().moves, victim_entries);
        EXPECT_EQ(ctl.stats().banks_removed, 1u);
        EXPECT_EQ(ctl.stats().banks_detached, 1u);
        expect_drains_to(s, tags);
    });
}

TEST(Reshard, InterleaveReshardUnsupported) {
    hw::Simulation sim;
    ShardedConfig cfg;
    cfg.num_banks = 4;  // kTagInterleave default
    ShardedSorter<TagSorter> s(cfg, sim);
    ReshardController<TagSorter> ctl(s);

    for (std::uint64_t t = 0; t < 16; ++t) s.insert(t, 0);
    EXPECT_FALSE(s.reshard_supported());
    EXPECT_EQ(ctl.add_bank(), std::nullopt);
    EXPECT_FALSE(ctl.remove_bank(1));
    EXPECT_EQ(ctl.pump(8), 0u);
    EXPECT_FALSE(ctl.migrating());
    EXPECT_EQ(s.stats().migration_moves, 0u);

    std::vector<std::uint64_t> tags(16);
    for (std::uint64_t t = 0; t < 16; ++t) tags[t] = t;
    expect_drains_to(s, tags);
}

TEST(Reshard, OneControllerPerSorter) {
    hw::Simulation sim;
    ShardedSorter<TagSorter> s(flowhash_config(2), sim);
    ReshardController<TagSorter> first(s);
    EXPECT_THROW(ReshardController<TagSorter> second(s), std::invalid_argument);
}

// Random add/remove/pump churn against the golden multiset: resharding
// must never change *what* pops, only which bank serves it.
TEST(Reshard, MigrationPreservesParity) {
    hw::Simulation sim;
    ShardedSorter<TagSorter> s(flowhash_config(4), sim);
    ReshardConfig rc;
    rc.auto_rebalance = true;
    rc.occupancy_skew = 2.0;
    rc.min_occupancy = 8;
    rc.check_interval = 16;
    ReshardController<TagSorter> ctl(s, rc);
    ref::RefSorter ref;  // unconstrained multiset oracle

    Rng rng(0x5ca1e);
    std::uint64_t next_tag = 0;
    for (int i = 0; i < 3000; ++i) {
        const unsigned roll = static_cast<unsigned>(rng.next_below(100));
        if (roll < 2) {
            if (s.num_banks() < 12) ctl.add_bank();
        } else if (roll < 4) {
            ctl.remove_bank(static_cast<unsigned>(rng.next_below(s.num_banks())));
        } else if (roll < 8) {
            ctl.pump(1 + rng.next_below(4));
        } else if (ref.size() == 0 || roll < 60) {
            // Unique tags: duplicate service order across banks is a
            // bank-index tie-break, which the plain multiset cannot model.
            const std::uint64_t tag = next_tag++;
            const std::uint32_t payload = static_cast<std::uint32_t>(tag);
            s.insert(tag, payload, rng.next_u64());
            ref.insert(tag, payload);
        } else {
            const auto want = ref.pop_min();
            const auto got = s.pop_min();
            ASSERT_TRUE(got.has_value());
            EXPECT_EQ(got->tag, want->tag);
            EXPECT_EQ(got->payload, want->payload);
        }
        ASSERT_EQ(s.size(), ref.size()) << "entries lost or duplicated at op " << i;
    }
    EXPECT_GT(s.stats().migration_moves, 0u) << "churn never migrated anything";
    while (const auto want = ref.pop_min()) {
        const auto got = s.pop_min();
        ASSERT_TRUE(got.has_value());
        EXPECT_EQ(got->tag, want->tag);
    }
    EXPECT_TRUE(s.empty());
}

TEST(Reshard, StolenCyclesAccounted) {
    hw::Simulation sim;
    ShardedSorter<TagSorter> s(flowhash_config(4), sim);
    ReshardController<TagSorter> ctl(s);
    const std::uint64_t t0 = sim.clock().now();

    for (std::uint64_t t = 0; t < 32; ++t) s.insert(t, 0, t);
    unsigned victim = 0;
    while (s.bank(victim).empty()) ++victim;
    ASSERT_TRUE(ctl.remove_bank(victim));
    std::uint64_t next = 32;
    while (ctl.migrating()) {
        s.insert(next, 0, next);
        ++next;
    }
    while (s.pop_min()) {
    }

    const ShardedStats& st = s.stats();
    EXPECT_GT(st.migration_moves, 0u);
    EXPECT_GT(st.migration_cycles, 0u);
    // Every behavioural cycle lands in exactly one bucket: datapath ops in
    // sequential_cycles, stolen migration steps in migration_cycles.
    EXPECT_EQ(st.sequential_cycles + st.migration_cycles, sim.clock().now() - t0);
}

TEST(Reshard, LoadAwareRebalanceTriggers) {
    hw::Simulation sim;
    ShardedSorter<TagSorter> s(flowhash_config(4), sim);
    ReshardConfig rc;
    rc.occupancy_skew = 1.5;
    rc.min_occupancy = 8;
    rc.check_interval = 8;
    ReshardController<TagSorter> ctl(s, rc);

    // One elephant flow: every insert lands in the same bank until the
    // occupancy watcher starts bleeding it into its neighbours.
    const std::uint64_t key = key_for_bank(s, 1);
    std::vector<std::uint64_t> tags;
    for (std::uint64_t t = 0; t < 128; ++t) {
        s.insert(t, 0, key);
        tags.push_back(t);
    }
    EXPECT_GT(ctl.stats().rebalance_triggers, 0u);
    EXPECT_GT(ctl.stats().moves, 0u);
    unsigned populated = 0;
    for (unsigned b = 0; b < s.num_banks(); ++b)
        populated += s.bank(b).empty() ? 0 : 1;
    EXPECT_GT(populated, 1u) << "rebalancer never spread the elephant flow";
    expect_drains_to(s, tags);
}

TEST(Reshard, DegradedModeFencesRebuiltBank) {
    for_each_bank_type([]<class Bank>() {
        hw::Simulation sim;
        auto s = make_sharded<Bank>(flowhash_config(2), sim);

        const std::uint64_t key0 = key_for_bank(s, 0);
        const std::uint64_t key1 = key_for_bank(s, 1);
        for (std::uint64_t t = 0; t < 8; ++t) s.insert(2 * t, 0, key0);      // bank 0
        for (std::uint64_t t = 0; t < 8; ++t) s.insert(2 * t + 1, 0, key1);  // bank 1
        const std::size_t before = s.size();

        std::vector<std::uint64_t> want;
        for (std::uint64_t t = 0; t < 8; ++t) want.push_back(2 * t);
        for (std::uint64_t t = 0; t < 8; ++t) want.push_back(2 * t + 1);
        // Uncorrectable damage in bank 1, so the scrub escalates to a
        // rebuild that changes one entry's tag.
        if constexpr (std::is_same_v<Bank, TagSorter>) {
            // Corrupt the head tag: 999 re-sorts to the back of the bank.
            auto& store = s.bank(1).store();
            auto head = store.peek_slot(store.head_addr());
            want.erase(std::find(want.begin(), want.end(), head.entry.tag));
            head.entry.tag = 999;
            store.poke_slot(store.head_addr(), head);
            want.push_back(999);
        } else {
            // Splice the head node (tag 1) onto tag 3's chain. Tag 3's
            // chain slot precedes tag 1's, so the rebuild salvages the
            // head node as a second tag-3 entry.
            s.bank(1).debug_node_next(s.bank(1).debug_chain_head(3)) =
                s.bank(1).debug_chain_head(1);
            want.erase(std::find(want.begin(), want.end(), 1));
            want.push_back(3);
        }

        EXPECT_TRUE(s.recover());
        // Degraded mode: the rebuilt bank is fenced, drained into bank 0,
        // and detached — not returned to rotation.
        EXPECT_EQ(s.bank_state(1), BankState::kDetached);
        EXPECT_EQ(s.active_banks(), 1u);
        EXPECT_TRUE(s.bank(1).empty());
        EXPECT_EQ(s.size(), before) << "degraded drain lost entries";
        EXPECT_GT(s.stats().migration_moves, 0u);

        // New traffic keeps flowing — to the surviving bank, whatever the
        // key.
        s.insert(500, 0, key1);
        EXPECT_EQ(s.bank(1).size(), 0u);
        want.push_back(500);
        expect_drains_to(s, want);
    });
}

// recover() hitting a half-finished drain must complete it (or leave it
// cleanly fenced), never double-move or drop the in-flight entries.
TEST(Reshard, RecoverMidMigrationCompletesDrain) {
    hw::Simulation sim;
    ShardedSorter<TagSorter> s(flowhash_config(4), sim);
    ReshardController<TagSorter> ctl(s);

    std::vector<std::uint64_t> tags;
    for (std::uint64_t t = 0; t < 40; ++t) {
        s.insert(t, 0, t);
        tags.push_back(t);
    }
    unsigned victim = 0;
    for (unsigned b = 0; b < s.num_banks(); ++b)
        if (s.bank(b).size() > s.bank(victim).size()) victim = b;
    ASSERT_GE(s.bank(victim).size(), 3u) << "flow hash left the victim too empty";

    ASSERT_TRUE(ctl.remove_bank(victim));
    ASSERT_EQ(ctl.pump(2), 2u);  // partial drain, then the "fault" hits
    ASSERT_FALSE(s.bank(victim).empty());

    EXPECT_TRUE(s.recover());
    EXPECT_EQ(s.bank_state(victim), BankState::kDetached);
    EXPECT_TRUE(s.bank(victim).empty());
    expect_drains_to(s, tags);
}

// Satellite regression: under flow hashing, full() is exact — skewed
// flows spill around their full primary bank, so capacity rejection
// happens only when the whole aggregate is full.
TEST(Reshard, FullIsExactUnderFlowHashSkew) {
    for_each_bank_type([]<class Bank>() {
        hw::Simulation sim;
        auto s = make_sharded<Bank>(flowhash_config(4, /*bank_capacity=*/4), sim);

        // One flow key: 16 inserts fill its primary bank, then spill across
        // the other three — no spurious overflow at entry 5.
        const std::uint64_t key = key_for_bank(s, 2);
        for (std::uint64_t t = 0; t < 16; ++t) {
            EXPECT_FALSE(s.full()) << "spurious full() after " << t << " inserts";
            ASSERT_NO_THROW(s.insert(t, 0, key)) << "spurious overflow at " << t;
        }
        EXPECT_TRUE(s.full());
        EXPECT_EQ(s.size(), s.capacity());
        for (unsigned b = 0; b < s.num_banks(); ++b) EXPECT_TRUE(s.bank(b).full());
        EXPECT_THROW(s.insert(16, 0, key), std::overflow_error);

        std::vector<std::uint64_t> tags(16);
        for (std::uint64_t t = 0; t < 16; ++t) tags[t] = t;
        expect_drains_to(s, tags);
    });
}

// Interleave keeps the conservative contract: structural placement means
// one full bank rejects its next tag while others still have room.
TEST(Reshard, FullStaysConservativeUnderInterleave) {
    hw::Simulation sim;
    ShardedConfig cfg;
    cfg.num_banks = 2;
    cfg.bank.capacity = 2;
    ShardedSorter<TagSorter> s(cfg, sim);

    s.insert(0, 0);  // bank 0
    s.insert(2, 0);  // bank 0: now full
    EXPECT_TRUE(s.full());
    ASSERT_NO_THROW(s.insert(1, 0));  // bank 1 still has room
    EXPECT_THROW(s.insert(4, 0), std::overflow_error);
}

}  // namespace
}  // namespace wfqs::core
