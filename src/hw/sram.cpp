#include "hw/sram.hpp"

#include "common/assert.hpp"
#include "common/bits.hpp"
#include "fault/errors.hpp"
#include "fault/injector.hpp"

namespace wfqs::hw {

Sram::Sram(std::string name, std::size_t num_words, unsigned word_bits, Clock& clock,
           unsigned ports)
    : name_(std::move(name)),
      word_bits_(word_bits),
      word_mask_(low_mask(word_bits)),
      clock_(clock),
      ports_(ports),
      num_words_(num_words) {
    WFQS_REQUIRE(num_words > 0, "SRAM must have at least one word");
    WFQS_REQUIRE(word_bits >= 1 && word_bits <= 64, "SRAM word width must be 1..64");
    WFQS_REQUIRE(ports >= 1, "SRAM needs at least one port");
    words_ = WordArray(num_words);
}

void Sram::check_addr(std::size_t addr, const char* op) const {
    if (addr < num_words_) return;
    throw fault::SramAddressError(name_, addr,
                                  "SRAM '" + name_ + "' " + op + " out of range: address " +
                                      std::to_string(addr) + " >= " +
                                      std::to_string(num_words_));
}

void Sram::throw_port_conflict() const {
    throw fault::SramPortConflict(
        name_, "SRAM port conflict on '" + name_ + "': more than " +
                   std::to_string(ports_) + " accesses in cycle " +
                   std::to_string(clock_.now()));
}

void Sram::inject(std::size_t addr) {
    if (injector_ != nullptr) injector_->on_access(*this, addr);
}

// ----------------------------------------------------------- slow lanes

std::uint64_t Sram::read_slow(std::size_t addr) {
    check_addr(addr, "read");
    charge_port();
    ++stats_.reads;
    inject(addr);
    if (!protected_()) return words_.get(addr);
    const fault::Decoded decoded = codec_.decode(words_.get(addr), check_words_.get(addr));
    switch (decoded.status) {
        case fault::DecodeStatus::kClean:
            break;
        case fault::DecodeStatus::kCorrected:
            // Scrub-on-read: write the corrected word back so the upset
            // does not accumulate into a double error.
            ++stats_.ecc_corrected;
            words_[addr] = decoded.data;
            check_words_[addr] = decoded.check;
            break;
        case fault::DecodeStatus::kUncorrectable:
            ++stats_.ecc_uncorrectable;
            throw fault::UncorrectableEccError(name_, addr);
    }
    return decoded.data;
}

void Sram::write_slow(std::size_t addr, std::uint64_t value) {
    check_addr(addr, "write");
    charge_port();
    ++stats_.writes;
    const std::uint64_t masked = value & word_mask_;
    words_[addr] = masked;
    if (protected_()) check_words_[addr] = codec_.encode(masked);
    inject(addr);
}

void Sram::flash_clear(std::size_t addr, std::size_t count) {
    if (count > num_words_ || addr > num_words_ - count) {
        throw fault::SramAddressError(
            name_, addr, "SRAM '" + name_ + "' flash_clear out of range: [" +
                             std::to_string(addr) + ", " + std::to_string(addr + count) +
                             ") exceeds " + std::to_string(num_words_) + " words");
    }
    charge_port();
    ++stats_.flash_clears;
    words_.clear(addr, count);
    if (protected_()) check_words_.clear(addr, count);  // encode(0) == 0
    if (count > 0) inject(addr);
}

void Sram::enable_protection(fault::Protection protection) {
    codec_ = fault::EccCodec(protection, word_bits_);
    check_words_ = protection == fault::Protection::kNone ? WordArray() : WordArray(num_words_);
    // Zero data already has its (zero) check word; encode the rest.
    if (protected_())
        words_.for_each_nonzero([&](std::size_t addr, std::uint64_t word) {
            check_words_[addr] = codec_.encode(word);
        });
    update_fast_path();
}

void Sram::corrupt(std::size_t addr, std::uint64_t data_xor, std::uint64_t check_xor) {
    check_addr(addr, "corrupt");
    words_[addr] ^= data_xor & word_mask_;
    if (protected_()) check_words_[addr] ^= check_xor;
}

void Sram::relaunder() {
    if (!protected_()) return;
    words_.for_each_touched(0, num_words_, [&](std::size_t addr) {
        const std::uint64_t data = words_.get(addr);
        const fault::Decoded d = codec_.decode(data, check_words_.get(addr));
        switch (d.status) {
            case fault::DecodeStatus::kClean:
                break;
            case fault::DecodeStatus::kCorrected:
                ++stats_.ecc_corrected;
                words_[addr] = d.data;
                check_words_[addr] = d.check;
                break;
            case fault::DecodeStatus::kUncorrectable:
                ++stats_.ecc_uncorrectable;
                check_words_[addr] = codec_.encode(data);
                break;
        }
    });
}

void Sram::poke(std::size_t addr, std::uint64_t value) {
    check_addr(addr, "poke");
    const std::uint64_t masked = value & word_mask_;
    if (words_.get(addr) != masked) words_[addr] = masked;
    if (!protected_()) return;
    const std::uint64_t check = codec_.encode(masked);
    if (check_words_.get(addr) != check) check_words_[addr] = check;
}

void Sram::wipe() {
    words_.clear();
    check_words_.clear();
}

std::uint64_t Sram::peek(std::size_t addr) const {
    check_addr(addr, "peek");
    return words_.get(addr);
}

std::uint64_t Sram::peek_check(std::size_t addr) const {
    check_addr(addr, "peek_check");
    return protected_() ? check_words_.get(addr) : 0;
}

std::uint64_t Sram::peek_corrected(std::size_t addr) const {
    check_addr(addr, "peek_corrected");
    if (!protected_()) return words_.get(addr);
    return codec_.decode(words_.get(addr), check_words_.get(addr)).data;
}

void Sram::for_each_nonzero_word(
    const std::function<void(std::size_t, std::uint64_t)>& fn) const {
    for_each_nonzero_word_in_range(0, num_words_, fn);
}

void Sram::for_each_nonzero_word_in_range(
    std::size_t first, std::size_t count,
    const std::function<void(std::size_t, std::uint64_t)>& fn) const {
    if (count == 0) return;
    WFQS_REQUIRE(count <= num_words_ && first <= num_words_ - count,
                 "for_each_nonzero_word range out of bounds");
    words_.for_each_touched(first, count, [&](std::size_t addr) {
        const std::uint64_t data = words_.get(addr);
        const std::uint64_t word =
            protected_() ? codec_.decode(data, check_words_.get(addr)).data : data;
        if (word != 0) fn(addr, word);
    });
}

}  // namespace wfqs::hw
