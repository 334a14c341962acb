// Fixed-point WFQ virtual-time tracker — the model of the paper's WFQ tag
// computation circuit (ref [8], Fig. 1 left block).
//
// Tracks the GPS virtual time V(t) with the classic iterated-deletion
// algorithm, in Q32.32 fixed point (the hardware representation feeding
// the tag quantizer). Real time is integer nanoseconds. Exposes the
// paper's eq. (1):
//
//     t_next = t + (M_min − V(t)) · Φ / r
//
// — the real time of the next scheduled departure, computed from the
// minimum time stamp M_min still in the sort/retrieve circuit. This is
// the feedback path that makes the sorter "integral to the operation of
// the entire scheduler" (§II-A).
//
// TagQuantizer is the step after the clock: it maps fixed-point virtual
// finish times onto the sorter's W-bit tag space (the rounding here is
// what creates the duplicate tag values of §III-C/D).
#pragma once

#include <cstdint>
#include <queue>
#include <vector>

#include "common/fixed_point.hpp"

namespace wfqs::wfq {

using FlowId = std::uint32_t;
using TimeNs = std::uint64_t;

class WfqVirtualTime {
public:
    /// `rate_bps`: output link rate shared by the flows.
    explicit WfqVirtualTime(std::uint64_t rate_bps);

    FlowId add_flow(std::uint32_t weight);
    std::size_t flow_count() const { return flows_.size(); }
    std::uint32_t weight(FlowId flow) const { return flows_.at(flow).weight; }

    /// Advance V(t) to real time `now` (must be non-decreasing).
    void advance_to(TimeNs now);

    /// Process an arrival: advances V, computes the packet's virtual
    /// start S = max(V, F_prev) and finish F = S + L/φ, and returns F.
    Fixed on_arrival(FlowId flow, TimeNs now, std::uint32_t size_bits);

    /// Virtual start of the most recent arrival (needed by WF2Q-family
    /// eligibility tests).
    Fixed last_start() const { return last_start_; }

    /// Paper eq. (1): real time at which the tag `m_min` (the smallest
    /// stamp in the sorter) departs, given the current busy set. Returns
    /// `now` when the system is idle or m_min is already past.
    TimeNs eq1_next_departure(Fixed m_min, TimeNs now);

    Fixed virtual_time() const { return v_; }
    std::uint64_t busy_weight() const { return busy_weight_; }

private:
    struct Flow {
        std::uint32_t weight;
        Fixed last_finish;  ///< F of the flow's newest packet
        bool busy = false;
    };
    struct IdleEvent {
        Fixed at_virtual;
        FlowId flow;
        bool operator>(const IdleEvent& o) const { return at_virtual > o.at_virtual; }
    };

    std::uint64_t rate_;
    Fixed v_;
    TimeNs t_ = 0;
    std::uint64_t busy_weight_ = 0;
    Fixed last_start_;
    std::vector<Flow> flows_;
    std::priority_queue<IdleEvent, std::vector<IdleEvent>, std::greater<IdleEvent>>
        idle_events_;
};

/// Maps fixed-point virtual finish times onto the sorter's integer tag
/// space: tag = floor(F · 2^granularity). Positive granularity keeps
/// fractional virtual-time bits; *negative* granularity makes one tag
/// step cover 2^-g virtual-time units — the knob that trades timestamp
/// precision against the tag-window span (§III-D rounding: coarser steps
/// produce more duplicate tags but let a small tag word cover a large
/// scheduling horizon, which is how a 12-bit sorter serves a deep
/// buffer).
class TagQuantizer {
public:
    explicit TagQuantizer(int granularity_bits = 0);

    std::uint64_t quantize(Fixed virtual_finish) const;

    /// Invert a quantized tag back to the virtual-time domain (the lower
    /// edge of its step).
    Fixed dequantize(std::uint64_t tag) const;

    /// The virtual-time span covered by one tag step.
    double tag_step_virtual() const;

private:
    unsigned shift_;  ///< kFracBits - granularity
};

}  // namespace wfqs::wfq
