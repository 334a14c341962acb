// Pluggable rank functions for the programmable PIFO scheduling layer.
//
// The paper's sort/retrieve circuit is exactly a PIFO primitive (push-in
// first-out: insert at an arbitrary rank, always pop the minimum), and
// Sivaraman et al. ("Programmable Packet Scheduling at Line Rate",
// PAPERS.md) showed that a wide family of scheduling disciplines reduces
// to computing a *rank* per packet on enqueue and serving in rank order.
// This module is that rank computation, and the repo's only fair-queueing
// tag path (§II: the sorter serves "any of the family of fair queueing
// algorithms" that sorts finishing tags). Seven disciplines —
//
//   STFQ/WFQ — virtual finish time from the exact GPS-tracking clock
//              (wfq::WfqVirtualTime), quantized onto the tag space.
//   WF2Q+    — the same finish rank plus a virtual *start* rank and an
//              eligibility horizon (S <= V(t)); the scheduler sorts
//              twice, the arrangement §I-B attributes to WF2Q+.
//   SCFQ     — self-clocked: V is the tag of the packet last served
//              (simplest hardware, looser delay bound).
//   FBFQ     — frame-based (Stiliadis & Varma [7]): V advances linearly
//              inside a frame and is recalibrated to the service point at
//              every frame boundary; "less complex than WFQ, but almost
//              as fair".
//   SRPT     — pFabric-style: rank = the flow's outstanding (queued)
//              bytes at arrival, so short flows cut ahead of long ones.
//   LSTF     — least-slack-time-first: rank = arrival time plus a
//              per-flow slack budget (tighter for heavier weights).
//   PRIO     — strict priority: the flow's static priority level.
//
// A RankFunction is deterministic state over the arrival/service stream:
// two instances fed the same (packet, now) sequences produce identical
// ranks. The differential harness leans on that — the rank oracle holds
// its *own* instance of the same policy and must never diverge.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace wfqs::sched_prog {

/// The ranks one arrival produces. `start` is only meaningful for
/// two-stage (eligibility-gated) policies; single-stage policies leave
/// it 0.
struct RankSet {
    std::uint64_t rank = 0;   ///< service order key (lower serves first)
    std::uint64_t start = 0;  ///< eligibility key (two-stage policies)
};

class RankFunction {
public:
    virtual ~RankFunction() = default;

    /// Register a flow; returns its id. Must be called before traffic.
    virtual net::FlowId add_flow(std::uint32_t weight) = 0;

    /// Rank the packet arriving at `now`. `now` must be non-decreasing
    /// across calls (simulation time).
    virtual RankSet on_arrival(const net::Packet& packet, net::TimeNs now) = 0;

    /// Hook invoked when the scheduler serves a packet whose service
    /// rank was `rank` (SRPT decrements the flow's outstanding bytes;
    /// SCFQ and FBFQ clock off the served rank; default no-op). Policies
    /// that ignore the rank may be called without it.
    virtual void on_service(const net::Packet& packet, net::TimeNs now,
                            std::uint64_t rank = 0) {
        (void)packet;
        (void)now;
        (void)rank;
    }

    /// Two-stage policies gate service on eligibility: a packet may only
    /// be served once its start rank has been reached, so the scheduler
    /// sorts twice (start order, then rank order).
    virtual bool two_stage() const { return false; }

    /// Quantized eligibility horizon at `now`: packets with
    /// start <= horizon are eligible. Only meaningful when two_stage().
    virtual std::uint64_t eligibility_horizon(net::TimeNs now) {
        (void)now;
        return 0;
    }

    virtual std::string name() const = 0;
};

enum class RankPolicy { kWfq, kWf2q, kScfq, kFbfq, kSrpt, kLstf, kPrio };

/// Knobs shared by the policy implementations. The defaults fit the
/// repo's standard sorter geometries (range_bits >= 16): every policy
/// keeps the live rank span far inside the moving window.
struct RankConfig {
    std::uint64_t link_rate_bps = 1'000'000'000;
    /// Virtual-time quantization for the fair-queueing family (negative =
    /// coarse: one tag step covers 2^-g virtual-time units; see
    /// wfq::TagQuantizer).
    int tag_granularity_bits = -6;
    /// SRPT rank unit: 2^srpt_shift outstanding bytes per rank step.
    unsigned srpt_shift = 8;
    /// LSTF slack budget for a weight-1 flow, divided by the weight.
    std::uint64_t lstf_slack_ns = 2'000'000;
    /// LSTF rank unit: 2^lstf_shift nanoseconds per rank step.
    unsigned lstf_shift = 14;
    /// Hard rank ceiling for the bounded policies (SRPT/LSTF/PRIO) —
    /// headroom guard against the sorter's moving-window discipline.
    std::uint64_t max_rank = std::uint64_t{1} << 62;
};

std::unique_ptr<RankFunction> make_rank_function(RankPolicy policy,
                                                 const RankConfig& config = {});
const std::vector<RankPolicy>& all_rank_policies();
std::string rank_policy_name(RankPolicy policy);

}  // namespace wfqs::sched_prog
