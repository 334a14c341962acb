#include "wfq/virtual_clock.hpp"

#include <cmath>
#include <limits>

#include "common/assert.hpp"

namespace wfqs::wfq {
namespace {

constexpr std::uint64_t kNsPerSec = 1'000'000'000ULL;

/// ΔV for a real-time interval: dt_ns · r / (Φ · 1e9), exact in 128 bits.
Fixed dv_for(TimeNs dt_ns, std::uint64_t rate, std::uint64_t phi) {
    WFQS_ASSERT(phi > 0);
    unsigned __int128 num = static_cast<unsigned __int128>(dt_ns) * rate;
    num <<= Fixed::kFracBits;
    num /= static_cast<unsigned __int128>(phi) * kNsPerSec;
    WFQS_ASSERT_MSG(num <= std::numeric_limits<std::uint64_t>::max(),
                    "virtual time advance overflow");
    return Fixed::from_raw(static_cast<std::uint64_t>(num));
}

/// Real nanoseconds for a virtual-time interval: dv · Φ · 1e9 / r.
TimeNs ns_for(Fixed dv, std::uint64_t phi, std::uint64_t rate) {
    WFQS_ASSERT(rate > 0);
    unsigned __int128 num = static_cast<unsigned __int128>(dv.raw()) * phi;
    num *= kNsPerSec;
    num /= static_cast<unsigned __int128>(rate) << Fixed::kFracBits;
    WFQS_ASSERT_MSG(num <= std::numeric_limits<std::uint64_t>::max(),
                    "departure time overflow");
    return static_cast<TimeNs>(num);
}

}  // namespace

WfqVirtualTime::WfqVirtualTime(std::uint64_t rate_bps) : rate_(rate_bps) {
    WFQS_REQUIRE(rate_bps > 0, "link rate must be positive");
}

FlowId WfqVirtualTime::add_flow(std::uint32_t weight) {
    WFQS_REQUIRE(weight > 0, "flow weight must be positive");
    flows_.push_back(Flow{weight, Fixed{}});
    return static_cast<FlowId>(flows_.size() - 1);
}

void WfqVirtualTime::place(std::size_t pos, const BusyEntry& entry) {
    busy_[pos] = entry;
    flows_[entry.flow].heap_pos = static_cast<std::uint32_t>(pos);
}

void WfqVirtualTime::sift_up(std::size_t pos) {
    const BusyEntry entry = busy_[pos];
    while (pos > 0) {
        const std::size_t parent = (pos - 1) / 2;
        if (!(entry.last_finish < busy_[parent].last_finish)) break;
        place(pos, busy_[parent]);
        pos = parent;
    }
    place(pos, entry);
}

void WfqVirtualTime::sift_down(std::size_t pos) {
    const BusyEntry entry = busy_[pos];
    const std::size_t n = busy_.size();
    while (true) {
        std::size_t child = 2 * pos + 1;
        if (child >= n) break;
        if (child + 1 < n && busy_[child + 1].last_finish < busy_[child].last_finish)
            ++child;
        if (!(busy_[child].last_finish < entry.last_finish)) break;
        place(pos, busy_[child]);
        pos = child;
    }
    place(pos, entry);
}

void WfqVirtualTime::pop_busy() {
    flows_[busy_.front().flow].heap_pos = kIdle;
    const BusyEntry last = busy_.back();
    busy_.pop_back();
    if (busy_.empty()) return;
    busy_.front() = last;
    sift_down(0);
}

void WfqVirtualTime::advance_to(TimeNs now) {
    WFQS_ASSERT_MSG(now >= t_, "time must be non-decreasing");
    // Drain, in finish order, every flow whose backlog GPS clears by `now`.
    // Flows that tie on last_finish drain at one (V, t): the second
    // crossing is zero virtual time after the first.
    while (!busy_.empty()) {
        const BusyEntry& top = busy_.front();
        const TimeNs cross = t_ + ns_for(top.last_finish - v_, busy_weight_, rate_);
        if (cross > now) break;
        v_ = top.last_finish;
        t_ = cross;
        const std::uint32_t weight = flows_[top.flow].weight;
        WFQS_ASSERT(busy_weight_ >= weight);
        busy_weight_ -= weight;
        pop_busy();
    }
    if (busy_weight_ > 0 && now > t_) v_ += dv_for(now - t_, rate_, busy_weight_);
    t_ = now;
}

Fixed WfqVirtualTime::on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits) {
    WFQS_REQUIRE(flow < flows_.size(), "unknown flow");
    WFQS_REQUIRE(size_bits > 0, "packet must have positive size");
    advance_to(now);
    Flow& f = flows_[flow];
    // Textbook WFQ: S = max(V, F_prev). (For an idle flow F_prev ≤ V by
    // construction, so no special case is needed.)
    const Fixed start = max(v_, f.last_finish);
    const Fixed finish = start + Fixed::ratio(size_bits, f.weight);
    f.last_finish = finish;
    if (f.heap_pos == kIdle) {
        busy_weight_ += f.weight;
        busy_.push_back(BusyEntry{finish, flow});
        sift_up(busy_.size() - 1);
    } else {
        // A busy flow's key only grows.
        busy_[f.heap_pos].last_finish = finish;
        sift_down(f.heap_pos);
    }
    last_start_ = start;
    return finish;
}

TimeNs WfqVirtualTime::eq1_next_departure(Fixed m_min, TimeNs now) {
    advance_to(now);
    if (busy_weight_ == 0 || m_min <= v_) return now;
    return now + ns_for(m_min - v_, busy_weight_, rate_);
}

// ------------------------------------------------------------ quantizer

TagQuantizer::TagQuantizer(int granularity_bits)
    : shift_(static_cast<unsigned>(static_cast<int>(Fixed::kFracBits) -
                                   granularity_bits)) {
    WFQS_REQUIRE(granularity_bits <= static_cast<int>(Fixed::kFracBits) &&
                     granularity_bits > static_cast<int>(Fixed::kFracBits) - 64,
                 "granularity must keep the shift within the 64-bit word");
}

std::uint64_t TagQuantizer::quantize(Fixed virtual_finish) const {
    if (shift_ == 0) return virtual_finish.raw();
    return virtual_finish.raw() >> shift_;
}

Fixed TagQuantizer::dequantize(std::uint64_t tag) const {
    return Fixed::from_raw(tag << shift_);
}

double TagQuantizer::tag_step_virtual() const {
    return std::ldexp(1.0, static_cast<int>(shift_)) /
           std::ldexp(1.0, static_cast<int>(Fixed::kFracBits));
}

}  // namespace wfqs::wfq
