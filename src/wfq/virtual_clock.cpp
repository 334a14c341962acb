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
    flows_.push_back(Flow{weight, Fixed{}, false});
    return static_cast<FlowId>(flows_.size() - 1);
}

void WfqVirtualTime::advance_to(TimeNs now) {
    WFQS_ASSERT_MSG(now >= t_, "time must be non-decreasing");
    while (true) {
        // Discard stale idle events (the flow received more packets since).
        while (!idle_events_.empty()) {
            const IdleEvent& e = idle_events_.top();
            const Flow& f = flows_[e.flow];
            if (!f.busy || f.last_finish != e.at_virtual) {
                idle_events_.pop();
                continue;
            }
            break;
        }
        if (busy_weight_ == 0 || idle_events_.empty()) break;

        const IdleEvent e = idle_events_.top();
        const TimeNs cross = t_ + ns_for(e.at_virtual - v_, busy_weight_, rate_);
        if (cross > now) break;
        // The flow's backlog drains at virtual time e.at_virtual.
        idle_events_.pop();
        v_ = e.at_virtual;
        t_ = cross;
        Flow& f = flows_[e.flow];
        f.busy = false;
        WFQS_ASSERT(busy_weight_ >= f.weight);
        busy_weight_ -= f.weight;
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
    if (!f.busy) {
        f.busy = true;
        busy_weight_ += f.weight;
    }
    idle_events_.push(IdleEvent{finish, flow});
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
