// Unit tests for the hardware substrate: clock, SRAM port accounting, and
// the simulation inventory.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "fault/errors.hpp"
#include "hw/clock.hpp"
#include "hw/simulation.hpp"
#include "hw/sram.hpp"

namespace wfqs::hw {
namespace {

TEST(Clock, AdvanceAndReset) {
    Clock c;
    EXPECT_EQ(c.now(), 0u);
    c.advance();
    c.advance(9);
    EXPECT_EQ(c.now(), 10u);
    c.reset();
    EXPECT_EQ(c.now(), 0u);
}

TEST(Sram, ReadBackWrites) {
    Clock clk;
    Sram m("m", 16, 12, clk);
    clk.advance();
    m.write(3, 0xABC);
    clk.advance();
    EXPECT_EQ(m.read(3), 0xABCu);
}

TEST(Sram, WordWidthMasking) {
    Clock clk;
    Sram m("m", 4, 8, clk);
    m.write(0, 0x1FF);  // 9 bits into an 8-bit word
    clk.advance();
    EXPECT_EQ(m.read(0), 0xFFu);
}

TEST(Sram, CountsAccesses) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    m.write(0, 1);
    clk.advance();
    m.read(0);
    clk.advance();
    m.read(0);
    EXPECT_EQ(m.stats().reads, 2u);
    EXPECT_EQ(m.stats().writes, 1u);
    EXPECT_EQ(m.stats().total(), 3u);
}

TEST(SramDeathTest, PortConflictThrows) {
    Clock clk;
    Sram m("single-port", 8, 16, clk);
    m.read(0);
    // A second access in the same cycle exceeds the single port.
    EXPECT_THROW(m.read(1), fault::SramPortConflict);
    // The conflict is observable but non-destructive: the next cycle works.
    clk.advance();
    EXPECT_EQ(m.read(1), 0u);
}

TEST(Sram, DualPortAllowsTwoPerCycle) {
    Clock clk;
    Sram m("dual-port", 8, 16, clk, 2);
    m.read(0);
    m.write(1, 5);
    EXPECT_EQ(m.peak_accesses_per_cycle(), 2u);
    clk.advance();
    EXPECT_EQ(m.read(1), 5u);
}

TEST(Sram, PortFreesNextCycle) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    for (int i = 0; i < 100; ++i) {
        m.read(0);
        clk.advance();
    }
    EXPECT_EQ(m.peak_accesses_per_cycle(), 1u);
}

TEST(Sram, FlashClearClearsRangeInOneAccess) {
    Clock clk;
    Sram m("tree-l3", 64, 16, clk);
    for (std::size_t a = 0; a < 64; ++a) {
        m.write(a, 0xFFFF);
        clk.advance();
    }
    m.flash_clear(16, 16);
    clk.advance();
    EXPECT_EQ(m.peek(15), 0xFFFFu);
    EXPECT_EQ(m.peek(16), 0u);
    EXPECT_EQ(m.peek(31), 0u);
    EXPECT_EQ(m.peek(32), 0xFFFFu);
    EXPECT_EQ(m.stats().flash_clears, 1u);
}

TEST(Sram, PeekDoesNotTouchPortsOrCounters) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    m.write(2, 9);
    EXPECT_EQ(m.peek(2), 9u);  // same cycle as the write: fine, no port use
    EXPECT_EQ(m.stats().reads, 0u);
}

TEST(Sram, RejectsBadConfig) {
    Clock clk;
    EXPECT_THROW(Sram("m", 0, 16, clk), std::invalid_argument);
    EXPECT_THROW(Sram("m", 8, 0, clk), std::invalid_argument);
    EXPECT_THROW(Sram("m", 8, 65, clk), std::invalid_argument);
    EXPECT_THROW(Sram("m", 8, 16, clk, 0), std::invalid_argument);
}

// The host-speed fast lane (no protection, no injector) must be
// observably identical to the full path: same values, same stats, same
// port/peak accounting. Run one access script through both and compare.
TEST(Sram, FastPathMatchesProtectedPathObservably) {
    Clock fast_clk, slow_clk;
    Sram fast("m", 32, 16, fast_clk, 2);
    Sram slow("m", 32, 16, slow_clk, 2);
    slow.enable_protection(fault::Protection::kSecded);  // forces the slow lane

    std::vector<std::uint64_t> fast_reads, slow_reads;
    const auto script = [](Sram& m, Clock& clk, std::vector<std::uint64_t>& reads) {
        for (std::size_t i = 0; i < 32; ++i) {
            m.write(i, 0x1234 + i * 7);
            m.read(i / 2);  // second access same cycle: exercises the ports
            clk.advance();
        }
        m.flash_clear(8, 8);
        clk.advance();
        for (std::size_t i = 0; i < 32; ++i) {
            reads.push_back(m.read(i));
            clk.advance();
        }
    };
    script(fast, fast_clk, fast_reads);
    script(slow, slow_clk, slow_reads);

    EXPECT_EQ(fast_reads, slow_reads);
    EXPECT_EQ(fast.stats().reads, slow.stats().reads);
    EXPECT_EQ(fast.stats().writes, slow.stats().writes);
    EXPECT_EQ(fast.stats().flash_clears, slow.stats().flash_clears);
    EXPECT_EQ(fast.peak_accesses_per_cycle(), slow.peak_accesses_per_cycle());
    EXPECT_EQ(fast.peak_accesses_per_cycle(), 2u);
}

TEST(Sram, FastPathStillEnforcesPortBudget) {
    Clock clk;
    Sram m("m", 8, 16, clk);  // unprotected, no injector: fast lane active
    m.read(0);
    EXPECT_THROW(m.read(1), fault::SramPortConflict);
    clk.advance();
    EXPECT_EQ(m.read(1), 0u);
}

TEST(Sram, FastPathStillChecksBounds) {
    Clock clk;
    Sram m("m", 8, 16, clk);
    EXPECT_THROW(m.read(8), fault::SramAddressError);
    EXPECT_THROW(m.write(100, 1), fault::SramAddressError);
    // A rejected access consumes neither a counter nor a port.
    EXPECT_EQ(m.stats().total(), 0u);
    EXPECT_EQ(m.read(0), 0u);  // the port is still free this cycle
}

TEST(Sram, FastPathMasksWordWidth) {
    Clock clk;
    Sram m("m", 4, 8, clk);
    m.write(0, 0x1FF);
    clk.advance();
    EXPECT_EQ(m.read(0), 0xFFu);
}

TEST(Sram, ProtectedMultiPageBlockMatchesReference) {
    // A SECDED block of many host pages driven against a plain vector:
    // every maintenance path must agree with the reference word for word,
    // and paths that only zero memory must not commit pages.
    constexpr std::size_t kPage = WordArray::kPageWords;
    constexpr std::size_t kWords = 8 * kPage + 100;
    constexpr unsigned kBits = 26;
    Clock clk;
    Sram m("big", kWords, kBits, clk);
    std::vector<std::uint64_t> ref(kWords, 0);
    Rng rng(17);
    const auto write = [&](std::size_t addr, std::uint64_t value) {
        clk.advance();
        m.write(addr, value);
        ref[addr] = value & low_mask(kBits);
    };
    const fault::EccCodec codec(fault::Protection::kSecded, kBits);
    const auto expect_matches = [&](const char* step) {
        for (std::size_t a = 0; a < kWords; ++a) {
            ASSERT_EQ(m.peek_corrected(a), ref[a]) << step << " @" << a;
            ASSERT_EQ(m.peek_check(a), codec.encode(ref[a])) << step << " @" << a;
        }
        for (const auto& [first, count] : {std::pair<std::size_t, std::size_t>{0, kWords},
                                           {kPage - 3, 2 * kPage + 9},
                                           {5 * kPage + 17, 1}}) {
            std::vector<std::pair<std::size_t, std::uint64_t>> got, want;
            m.for_each_nonzero_word_in_range(
                first, count, [&](std::size_t a, std::uint64_t w) { got.emplace_back(a, w); });
            for (std::size_t a = first; a < first + count; ++a)
                if (ref[a] != 0) want.emplace_back(a, ref[a]);
            ASSERT_EQ(got, want) << step << " range " << first << "+" << count;
        }
    };

    // Unprotected writes to pages 0..5, then protection re-encodes them.
    for (int i = 0; i < 600; ++i) write(rng.next_below(6 * kPage), rng.next_u64());
    m.enable_protection(fault::Protection::kSecded);
    expect_matches("enable_protection");
    for (int i = 0; i < 600; ++i) write(rng.next_below(6 * kPage), rng.next_u64());
    expect_matches("write");

    // A partial-page clear, then one covering pages 2 and 3 whole.
    clk.advance();
    m.flash_clear(10, 40);
    std::fill_n(ref.begin() + 10, 40, 0);
    clk.advance();
    m.flash_clear(2 * kPage - 7, 2 * kPage + 14);
    std::fill_n(ref.begin() + static_cast<std::ptrdiff_t>(2 * kPage - 7), 2 * kPage + 14, 0);
    expect_matches("flash_clear");

    // poke(0) on the untouched pages 2 and 7 commits nothing.
    const std::size_t pages = m.touched_pages();
    m.poke(2 * kPage + 5, 0);
    m.poke(7 * kPage, 0);
    EXPECT_EQ(m.touched_pages(), pages);
    m.poke(7 * kPage + 1, 0x3FF);
    ref[7 * kPage + 1] = 0x3FF;
    expect_matches("poke");

    // Single upsets are corrected by a read (scrub) or by relaunder; a
    // double upset becomes authoritative raw data under relaunder.
    write(100, 0x155);
    write(5 * kPage + 1, 0x2AA);
    write(8 * kPage + 50, 0x777);
    m.corrupt(100, 1u << 4);
    m.corrupt(5 * kPage + 1, 0, 1);
    m.corrupt(8 * kPage + 50, 0b11);
    clk.advance();
    EXPECT_EQ(m.read(100), 0x155u);
    EXPECT_EQ(m.stats().ecc_corrected, 1u);
    m.relaunder();
    EXPECT_EQ(m.stats().ecc_corrected, 2u);
    EXPECT_EQ(m.stats().ecc_uncorrectable, 1u);
    ref[8 * kPage + 50] = 0x777 ^ 0b11;
    expect_matches("relaunder");

    m.wipe();
    std::fill(ref.begin(), ref.end(), 0);
    EXPECT_EQ(m.touched_pages(), 0u);
    expect_matches("wipe");
}

TEST(Simulation, InventoryAggregates) {
    Simulation sim;
    Sram& a = sim.make_sram("a", 16, 16);
    Sram& b = sim.make_sram("b", 256, 12);
    a.write(0, 1);
    sim.clock().advance();
    b.read(0);
    sim.clock().advance();
    b.write(1, 2);
    EXPECT_EQ(sim.total_memory_stats().reads, 1u);
    EXPECT_EQ(sim.total_memory_stats().writes, 2u);
    EXPECT_EQ(sim.memories().size(), 2u);
    EXPECT_EQ(sim.total_memory_bits(), 16u * 16u + 256u * 12u);
}

TEST(Simulation, ResetStats) {
    Simulation sim;
    Sram& a = sim.make_sram("a", 16, 16);
    a.write(0, 1);
    sim.reset_stats();
    EXPECT_EQ(sim.total_memory_stats().total(), 0u);
}

}  // namespace
}  // namespace wfqs::hw
