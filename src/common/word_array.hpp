// Fixed-size array of 64-bit words that reads as zero until written and
// commits host memory only for the pages it touches.
//
// The paper gives every tree level, the translation table and the tag
// list its own SRAM block (§III). With a 32-bit tag space those blocks are
// far larger than the data they hold, so both the SRAM model (hw::Sram)
// and the host-native bitmap sorter (core::FfsSorter) keep their words
// here: one anonymous, unreserved mapping per array, whose zero pages the
// kernel supplies on first read and backs with memory on first write.
// Reads are a plain array load at every size.
//
// Every write through operator[] also marks its 4 KiB page in a one-byte-
// per-page map. The map bounds the live-state sweeps (for_each_touched,
// for_each_nonzero) to pages that may hold a nonzero word, and clear()
// hands whole touched pages back to the OS. A page marked touched may
// still be all-zero; an untouched page always is.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace wfqs {

class WordArray {
public:
    static constexpr unsigned kPageShift = 9;  ///< 512 words = one 4 KiB page
    static constexpr std::size_t kPageWords = std::size_t{1} << kPageShift;

    WordArray() = default;
    /// `words` zero words; only address space is reserved up front.
    explicit WordArray(std::size_t words);

    std::size_t size() const { return size_; }

    /// Read word `i` (< size()); never commits memory.
    std::uint64_t get(std::size_t i) const { return data_[i]; }

    /// Writable word `i` (< size()); marks its page touched.
    std::uint64_t& operator[](std::size_t i) {
        touched_[i >> kPageShift] = 1;
        return data_[i];
    }

    /// Zero words [first, first + count): pages wholly inside the range go
    /// back to the OS, the partial ones at either end are zeroed in place.
    void clear(std::size_t first, std::size_t count);
    void clear() { clear(0, size_); }

    /// Pages written since they were last released; every other page
    /// reads zero.
    std::size_t touched_pages() const;

    /// Invoke `fn(i)` for every index in [first, first + count) that lies
    /// on a touched page, in ascending order.
    template <typename Fn>
    void for_each_touched(std::size_t first, std::size_t count, Fn&& fn) const {
        if (count == 0) return;
        const std::size_t end = first + count;
        for (std::size_t p = first >> kPageShift; p <= (end - 1) >> kPageShift; ++p) {
            if (touched_[p] == 0) continue;
            const std::size_t hi = std::min(end, page_end(p));
            for (std::size_t i = std::max(first, p << kPageShift); i < hi; ++i) fn(i);
        }
    }

    /// Invoke `fn(index, word)` for every nonzero word, in ascending index
    /// order, visiting touched pages only.
    template <typename Fn>
    void for_each_nonzero(Fn&& fn) const {
        for_each_touched(0, size_, [&](std::size_t i) {
            if (data_[i] != 0) fn(i, data_[i]);
        });
    }

private:
    /// One past the last word of page `p`.
    std::size_t page_end(std::size_t p) const {
        const std::size_t end = (p + 1) << kPageShift;
        return end < size_ ? end : size_;
    }

    /// Deleter owning the mapping's length. `bytes` has no member
    /// initializer because unique_ptr's default constructor needs Unmap
    /// default-constructible while WordArray is still incomplete; it
    /// value-initializes the deleter (bytes = 0) beside a null pointer.
    struct Unmap {
        std::size_t bytes;
        void operator()(std::uint64_t* p) const;
    };

    std::unique_ptr<std::uint64_t[], Unmap> data_;
    std::size_t size_ = 0;
    std::vector<std::uint8_t> touched_;  ///< one byte per page
};

}  // namespace wfqs
