// The fault layer in isolation: ECC codecs, the seeded injector, and the
// Sram protection/relaunder machinery (DESIGN.md "Fault model and
// recovery"). Structure-level corruption and recovery live in
// integrity_test.cpp.
#include <gtest/gtest.h>

#include "fault/ecc.hpp"
#include "fault/errors.hpp"
#include "fault/injector.hpp"
#include "hw/simulation.hpp"
#include "obs/metrics.hpp"

namespace wfqs {
namespace {

// ---------------------------------------------------------------- codec

TEST(EccCodec, NoneHasNoCheckBits) {
    fault::EccCodec codec(fault::Protection::kNone, 32);
    EXPECT_EQ(codec.check_width(), 0u);
    EXPECT_EQ(codec.encode(0xDEADBEEF), 0u);
    const auto d = codec.decode(0xDEADBEEF, 0);
    EXPECT_EQ(d.status, fault::DecodeStatus::kClean);
    EXPECT_EQ(d.data, 0xDEADBEEFu);
}

TEST(EccCodec, ZeroDataEncodesToZeroCheck) {
    // Sram storage relies on this: an untouched word is zero data with a
    // zero check word, which must decode clean under every protection.
    for (const auto protection : {fault::Protection::kNone, fault::Protection::kParity,
                                  fault::Protection::kSecded}) {
        for (const unsigned width : {1u, 8u, 12u, 26u, 32u, 57u, 64u}) {
            fault::EccCodec codec(protection, width);
            EXPECT_EQ(codec.encode(0), 0u)
                << fault::to_string(protection) << " w" << width;
            const auto d = codec.decode(0, 0);
            EXPECT_EQ(d.status, fault::DecodeStatus::kClean);
            EXPECT_EQ(d.data, 0u);
        }
    }
}

TEST(EccCodec, ParityDetectsSingleFlipButCannotCorrect) {
    fault::EccCodec codec(fault::Protection::kParity, 16);
    EXPECT_EQ(codec.check_width(), 1u);
    const std::uint64_t data = 0xA5A5;
    const std::uint64_t check = codec.encode(data);
    EXPECT_EQ(codec.decode(data, check).status, fault::DecodeStatus::kClean);

    for (unsigned bit = 0; bit < 16; ++bit) {
        const auto d = codec.decode(data ^ (1ull << bit), check);
        EXPECT_EQ(d.status, fault::DecodeStatus::kUncorrectable) << "bit " << bit;
        EXPECT_EQ(d.data, data ^ (1ull << bit)) << "parity must return data raw";
    }
    // An even number of flips is invisible to parity — by design.
    EXPECT_EQ(codec.decode(data ^ 0b11, check).status, fault::DecodeStatus::kClean);
}

TEST(EccCodec, SecdedCorrectsEverySingleDataBit) {
    for (const unsigned width : {8u, 12u, 24u, 37u, 57u}) {
        fault::EccCodec codec(fault::Protection::kSecded, width);
        const std::uint64_t data = 0x5A5A'A5A5'5A5A'A5A5ull & ((width == 64 ? ~0ull : (1ull << width) - 1));
        const std::uint64_t check = codec.encode(data);
        for (unsigned bit = 0; bit < width; ++bit) {
            const auto d = codec.decode(data ^ (1ull << bit), check);
            EXPECT_EQ(d.status, fault::DecodeStatus::kCorrected)
                << "width " << width << " bit " << bit;
            EXPECT_EQ(d.data, data) << "width " << width << " bit " << bit;
            EXPECT_EQ(d.check, check);
        }
    }
}

TEST(EccCodec, SecdedCorrectsEverySingleCheckBit) {
    fault::EccCodec codec(fault::Protection::kSecded, 24);
    const std::uint64_t data = 0x00C0'FFEE;
    const std::uint64_t check = codec.encode(data);
    for (unsigned bit = 0; bit < codec.check_width(); ++bit) {
        const auto d = codec.decode(data, check ^ (1ull << bit));
        EXPECT_EQ(d.status, fault::DecodeStatus::kCorrected) << "check bit " << bit;
        EXPECT_EQ(d.data, data);
        EXPECT_EQ(d.check, check);
    }
}

TEST(EccCodec, SecdedDetectsDoubleFlips) {
    fault::EccCodec codec(fault::Protection::kSecded, 24);
    const std::uint64_t data = 0x12'3456;
    const std::uint64_t check = codec.encode(data);
    for (const auto& [a, b] : {std::pair{0u, 1u}, {3u, 17u}, {10u, 23u}}) {
        const auto d = codec.decode(data ^ (1ull << a) ^ (1ull << b), check);
        EXPECT_EQ(d.status, fault::DecodeStatus::kUncorrectable)
            << "bits " << a << "," << b;
    }
    // Data flip + check flip is also a double error.
    const auto d = codec.decode(data ^ 1, check ^ 1);
    EXPECT_EQ(d.status, fault::DecodeStatus::kUncorrectable);
}

TEST(EccCodec, ProtectionNamesRoundTrip) {
    using fault::Protection;
    for (const auto p : {Protection::kNone, Protection::kParity, Protection::kSecded})
        EXPECT_EQ(fault::protection_from_string(fault::to_string(p)), p);
    EXPECT_FALSE(fault::protection_from_string("hamming").has_value());
}

// ----------------------------------------------------------------- sram

TEST(SramProtection, EnableReencodesExistingContents) {
    hw::Simulation sim;
    auto& mem = sim.make_sram("m", 8, 24);
    mem.write(3, 0xABCDE);
    sim.clock().advance();
    mem.enable_protection(fault::Protection::kSecded);
    EXPECT_EQ(mem.read(3), 0xABCDEu);
    EXPECT_EQ(mem.peek(3), 0xABCDEu) << "data layout must not change";
    EXPECT_GT(mem.check_width(), 0u);
}

TEST(SramProtection, SecdedScrubsSingleFlipOnRead) {
    hw::Simulation sim;
    sim.enable_protection(fault::Protection::kSecded);
    auto& mem = sim.make_sram("m", 8, 24);
    mem.write(2, 0x55AA);
    sim.clock().advance();
    mem.corrupt(2, 1ull << 7);
    EXPECT_EQ(mem.peek(2), 0x55AAu ^ (1u << 7)) << "corrupt() must hit storage";
    EXPECT_EQ(mem.read(2), 0x55AAu) << "read must correct";
    EXPECT_EQ(mem.peek(2), 0x55AAu) << "scrub-on-read must write back";
    EXPECT_EQ(mem.stats().ecc_corrected, 1u);
    EXPECT_EQ(mem.stats().ecc_uncorrectable, 0u);
}

TEST(SramProtection, SecdedThrowsOnDoubleFlip) {
    hw::Simulation sim;
    sim.enable_protection(fault::Protection::kSecded);
    auto& mem = sim.make_sram("m", 8, 24);
    mem.write(5, 0xF0F0F);
    sim.clock().advance();
    mem.corrupt(5, 0b101);
    EXPECT_THROW(mem.read(5), fault::UncorrectableEccError);
    EXPECT_EQ(mem.stats().ecc_uncorrectable, 1u);
}

TEST(SramProtection, ParityThrowsOnSingleFlip) {
    hw::Simulation sim;
    sim.enable_protection(fault::Protection::kParity);
    auto& mem = sim.make_sram("m", 8, 24);
    mem.write(0, 0x1234);
    sim.clock().advance();
    mem.corrupt(0, 1);
    EXPECT_THROW(mem.read(0), fault::UncorrectableEccError);
    // peek_corrected never throws: it returns the raw word for the audit.
    EXPECT_EQ(mem.peek_corrected(0), 0x1235u);
}

TEST(SramProtection, RelaunderCorrectsAndMakesUncorrectableAuthoritative) {
    hw::Simulation sim;
    sim.enable_protection(fault::Protection::kSecded);
    auto& mem = sim.make_sram("m", 8, 24);
    mem.write(1, 0x111);
    sim.clock().advance();
    mem.write(2, 0x222);
    mem.corrupt(1, 1ull << 3);   // correctable
    mem.corrupt(2, 0b11000);     // uncorrectable

    mem.relaunder();
    EXPECT_EQ(mem.peek(1), 0x111u) << "single flip corrected in place";
    EXPECT_EQ(mem.peek(2), 0x222u ^ 0b11000u)
        << "uncorrectable raw data becomes authoritative";
    sim.clock().advance();
    EXPECT_EQ(mem.read(2), 0x222u ^ 0b11000u) << "datapath stops throwing";
}

// ------------------------------------------------------------- injector

TEST(FaultInjector, SameSeedSameFaults) {
    const auto run = [](std::uint64_t seed) {
        hw::Simulation sim;
        sim.enable_protection(fault::Protection::kSecded);
        fault::FaultInjector injector(seed);
        fault::MemoryFaultModel model;
        model.bit_flip_per_access = 0.05;
        injector.set_default_model(model);
        sim.attach_fault_injector(&injector);
        auto& mem = sim.make_sram("m", 64, 24);
        std::vector<std::uint64_t> trace;
        for (int i = 0; i < 400; ++i) {
            mem.write(i % 64, static_cast<std::uint64_t>(i) * 0x9E37u);
            sim.clock().advance();
        }
        for (std::size_t a = 0; a < 64; ++a)
            trace.push_back((mem.peek(a) << 16) ^ mem.peek_check(a));
        trace.push_back(injector.stats().transient_flips);
        return trace;
    };
    EXPECT_EQ(run(7), run(7)) << "identical seeds must replay identically";
    EXPECT_NE(run(7), run(8)) << "different seeds must diverge";
    EXPECT_GT(run(7).back(), 0u) << "a 5% rate over 400 accesses must flip bits";
}

TEST(FaultInjector, StuckBitSurvivesWrites) {
    hw::Simulation sim;
    fault::FaultInjector injector(1);
    fault::MemoryFaultModel model;
    model.stuck_bits.push_back({4, 2, true});
    injector.set_default_model(model);
    sim.attach_fault_injector(&injector);
    auto& mem = sim.make_sram("m", 8, 24);

    mem.write(4, 0);  // tries to clear the stuck cell
    sim.clock().advance();
    EXPECT_EQ(mem.read(4), 1ull << 2) << "the cell re-forces on every access";
    EXPECT_GE(injector.stats().stuck_forces, 1u);

    sim.clock().advance();
    mem.write(4, 0xFF);
    sim.clock().advance();
    EXPECT_EQ(mem.read(4), 0xFFull) << "a write agreeing with the cell is clean";
}

TEST(FaultInjector, PerMemoryOverridesAndQuietDefault) {
    hw::Simulation sim;
    fault::FaultInjector injector(3);
    fault::MemoryFaultModel noisy;
    noisy.bit_flip_per_access = 1.0;  // flip a bit on *every* access
    injector.set_model("noisy", noisy);
    sim.attach_fault_injector(&injector);
    auto& quiet = sim.make_sram("quiet", 4, 24);
    auto& loud = sim.make_sram("noisy", 4, 24);

    quiet.write(0, 0x123);
    loud.write(0, 0x123);
    sim.clock().advance();
    EXPECT_EQ(quiet.peek(0), 0x123u) << "default model injects nothing";
    EXPECT_NE(loud.peek(0), 0x123u) << "override flips on the write access";
}

TEST(FaultInjector, MetricsIncludeSeed) {
    obs::MetricsRegistry registry;
    fault::FaultInjector injector(1234);
    injector.register_metrics(registry);
    const auto counters = registry.counter_values();
    ASSERT_TRUE(counters.count("fault.seed"));
    EXPECT_EQ(counters.at("fault.seed"), 1234u);
}

}  // namespace
}  // namespace wfqs
