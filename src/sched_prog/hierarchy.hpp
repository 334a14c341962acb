// Hierarchical composition over the programmable schedulers: classes
// with strict priority *between* levels and DWRR or class-level WFQ
// *within* a level, each class wrapping an arbitrary child Scheduler
// (typically a PifoScheduler with its own rank policy).
//
// The two named shapes (after the ns-2 TCN queues prio_wfq.cc /
// prio_dwrr.cc — a strict-priority EF queue over weighted sharing among
// the rest):
//
//   * strict-priority-over-WFQ: an EF class at priority 0, the remaining
//     classes at priority 1 sharing by class-level WFQ (self-clocked:
//     the level's virtual time is the finish tag of the class head last
//     served; integer arithmetic, deterministic).
//   * DWRR classes: one level whose classes share by deficit round
//     robin, quantum per class.
//
// The round-robin hierarchies of §I-B are trees of this shape over
// scheduler::DrrScheduler children: MDRR is a priority-0 FIFO class (the
// low-latency queue) over a priority-1 DRR class, and CBQ ("a
// hierarchical approach to DRR") is one DWRR level of DRR classes.
//
// The parent needs head-of-line sizes to budget deficits and compute
// class finish tags — Scheduler::peek_size. Children that cannot peek
// degrade gracefully to one-packet-per-visit (WRR) within DWRR levels
// and to an MTU estimate within WFQ levels. This scheduler's own
// peek_size is exact, so a HierScheduler nests as a byte-charged class
// of another.
//
// Flow routing: flows registered through the driver-facing add_flow are
// assigned to classes by a configurable router (default: round robin
// over classes in creation order); add_flow_in_class pins a flow
// explicitly. Packets keep their *global* flow ids at the boundary —
// the parent translates to the child's local id space on enqueue and
// back on dequeue, so SimDriver records stay analysis-compatible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "scheduler/scheduler.hpp"

namespace wfqs::sched_prog {

class HierScheduler final : public scheduler::Scheduler {
public:
    enum class Sharing { kDwrr, kWfq };

    struct ClassConfig {
        unsigned priority = 1;        ///< 0 is served strictly first
        std::uint32_t weight = 1;     ///< share within the level (kWfq)
        std::uint32_t quantum_bytes = 3000;  ///< DRR quantum per visit (kDwrr)
        Sharing sharing = Sharing::kDwrr;    ///< must agree across a level
    };

    /// Routes a driver-registered flow (global id, weight) to a class.
    using FlowRouter = std::function<unsigned(net::FlowId, std::uint32_t)>;

    HierScheduler() = default;

    /// Add a class wrapping `child`. Classes must be added before flows.
    unsigned add_class(const ClassConfig& config,
                       std::unique_ptr<scheduler::Scheduler> child);

    /// Pin a flow to a class; returns the flow's *global* id.
    net::FlowId add_flow_in_class(unsigned cls, std::uint32_t weight);

    /// Driver-facing registration: routes through the FlowRouter
    /// (default: round robin over classes in creation order).
    net::FlowId add_flow(std::uint32_t weight) override;
    void set_flow_router(FlowRouter router) { router_ = std::move(router); }

    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override;
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override;

    bool has_packets() const override;
    std::size_t queued_packets() const override;
    std::string name() const override;
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override;

private:
    struct ClassState {
        ClassConfig config;
        std::unique_ptr<scheduler::Scheduler> child;
        std::vector<net::FlowId> local_to_global;
        // DWRR state.
        std::uint64_t deficit = 0;
        bool fresh = true;  ///< round-robin pointer newly arrived
        // Class-level WFQ state (scaled by kWfqScale).
        std::uint64_t finish = 0;
    };
    struct Level {
        Sharing sharing = Sharing::kDwrr;
        std::vector<unsigned> classes;  ///< indices, creation order
        std::size_t cursor = 0;         ///< DWRR round-robin pointer
        std::uint64_t virtual_time = 0; ///< class-WFQ clock (scaled)
    };
    static constexpr std::uint64_t kWfqScale = 256;
    static constexpr std::uint32_t kMtuFallbackBytes = 1500;

    /// The class a level serves next and its child's head size (nullopt
    /// when the child cannot peek). Picking may advance the DWRR cursor
    /// and bank deficits, but picking again before the dequeue returns
    /// the same class: peek_size and do_dequeue share this step.
    struct Choice {
        unsigned cls = 0;
        std::optional<std::uint32_t> head;
    };
    Level* backlogged_level();
    Choice pick(Level& level, net::TimeNs now);
    Choice pick_dwrr(Level& level, net::TimeNs now);
    Choice pick_wfq(Level& level, net::TimeNs now);
    net::Packet translate_back(unsigned cls, net::Packet packet) const;

    std::vector<ClassState> classes_;
    std::map<unsigned, Level> levels_;  ///< ascending priority
    struct FlowRoute {
        unsigned cls;
        net::FlowId local;
    };
    std::vector<FlowRoute> flows_;  ///< global flow id -> (class, local id)
    FlowRouter router_;
};

}  // namespace wfqs::sched_prog
