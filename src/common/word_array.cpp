#include "common/word_array.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>
#include <new>

#include "common/assert.hpp"

namespace wfqs {

namespace {

constexpr std::size_t kPageBytes = WordArray::kPageWords * sizeof(std::uint64_t);

}  // namespace

WordArray::WordArray(std::size_t words)
    : size_(words), touched_((words + kPageWords - 1) >> kPageShift, 0) {
    if (words == 0) return;
    const std::size_t bytes = touched_.size() * kPageBytes;
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    data_ = {static_cast<std::uint64_t*>(p), Unmap{bytes}};
}

void WordArray::Unmap::operator()(std::uint64_t* p) const { munmap(p, bytes); }

std::size_t WordArray::touched_pages() const {
    return static_cast<std::size_t>(std::count(touched_.begin(), touched_.end(), 1));
}

void WordArray::clear(std::size_t first, std::size_t count) {
    WFQS_REQUIRE(count <= size_ && first <= size_ - count, "WordArray::clear out of range");
    if (count == 0) return;
    const std::size_t end = first + count;
    // Whole touched pages are released in contiguous runs: one madvise
    // per run, so a wipe costs one call per live region, not per page.
    std::size_t run_begin = 0;
    std::size_t run_end = 0;
    const auto flush = [&] {
        if (run_begin == run_end) return;
        char* bytes = reinterpret_cast<char*>(data_.get()) + run_begin * kPageBytes;
        const std::size_t len = (run_end - run_begin) * kPageBytes;
        // MADV_DONTNEED on a private anonymous mapping drops the pages; the
        // next access maps fresh zero pages. Where the call is refused (an
        // OS page larger than 4 KiB, or no such advice) zero in place.
#if defined(__linux__)
        if (madvise(bytes, len, MADV_DONTNEED) != 0)
#endif
            std::memset(bytes, 0, len);
        run_begin = run_end = 0;
    };
    for (std::size_t p = first >> kPageShift; p <= (end - 1) >> kPageShift; ++p) {
        if (touched_[p] == 0) continue;  // already all-zero
        const std::size_t page_lo = p << kPageShift;
        const std::size_t lo = std::max(first, page_lo);
        const std::size_t hi = std::min(end, page_end(p));
        if (lo == page_lo && hi == page_end(p)) {
            if (run_end != p) flush();
            if (run_begin == run_end) run_begin = p;
            run_end = p + 1;
            touched_[p] = 0;
        } else {
            std::fill(data_.get() + lo, data_.get() + hi, std::uint64_t{0});
        }
    }
    flush();
}

}  // namespace wfqs
