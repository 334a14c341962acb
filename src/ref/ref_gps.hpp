// Golden reference for the packet-scheduler family: replay a completed
// simulation run through the exact GPS fluid model (wfq::GpsFluidSim) and
// check the classic WFQ service guarantees against it.
//
// The theory (Parekh–Gallager, §II-A context): a packetized WFQ server
// finishes every packet no later than its GPS fluid finish time plus one
// maximum packet transmission time, D_p <= F_gps + Lmax/r. Exact WF2Q
// (eligibility tested against the true GPS virtual time, ref [5]) obeys
// the same bound — but only with the *exact* clock: this oracle caught a
// WF2Q scheduler breaking the bound by up to 3.4 Lmax/r when its
// eligibility gate ran on the flat O(1) WF2Q+ clock, whose virtual time
// advances at r/Φ_total over all registered flows and so lags GPS
// whenever part of the flow set idles. The conformance harness runs
// randomized workloads through sched_prog::PifoScheduler and asks this
// oracle whether any packet broke the bound.
//
// Implementation-specific slack: the hardware tag path quantizes virtual
// time (wfq::TagQuantizer, §III-D) and the discrete driver serves whole
// packets, so callers pass an explicit slack for the coarsening they
// configured; with fine granularity the theoretical bound itself holds.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/sim_driver.hpp"

namespace wfqs::ref {

class RefGpsScheduler {
public:
    /// `weights[i]` is flow i's fair-queueing weight; flows are the same
    /// indices the scheduler's add_flow order produced.
    RefGpsScheduler(std::uint64_t link_rate_bps, std::vector<double> weights);

    struct PacketBound {
        std::uint64_t packet_id = 0;
        std::uint32_t flow = 0;
        double gps_finish_s = 0.0;     ///< real time GPS completes the packet
        double virtual_finish = 0.0;   ///< the ideal WFQ finishing tag
    };

    /// Feed every *served* packet of `result` (records, in arrival order)
    /// through a fresh GPS fluid simulation and return its finish times.
    std::vector<PacketBound> replay(const net::SimResult& result) const;

    struct Violation {
        std::uint64_t packet_id = 0;
        double departure_s = 0.0;
        double limit_s = 0.0;   ///< gps_finish + Lmax/r + slack
        double excess_s = 0.0;  ///< departure - limit
    };

    /// Check D_p <= F_gps + Lmax/r (+ slack_s) for every served packet.
    /// Returns the violations, worst first; empty means conformant.
    std::vector<Violation> check_departure_bound(const net::SimResult& result,
                                                 double slack_s = 0.0) const;

    /// One-line human-readable verdict ("ok" or the worst violation).
    static std::string describe(const std::vector<Violation>& violations);

private:
    std::uint64_t rate_;
    std::vector<double> weights_;
};

}  // namespace wfqs::ref
