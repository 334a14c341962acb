#include "sched_prog/rank.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "wfq/virtual_clock.hpp"

namespace wfqs::sched_prog {
namespace {

/// STFQ/WFQ: rank = quantized virtual finish from the exact GPS clock.
class WfqRank final : public RankFunction {
public:
    explicit WfqRank(const RankConfig& cfg)
        : clock_(cfg.link_rate_bps), quantizer_(cfg.tag_granularity_bits) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        return clock_.add_flow(weight);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        const Fixed finish = clock_.on_arrival(packet.flow, now, packet.size_bits());
        return {quantizer_.quantize(finish), 0};
    }
    std::string name() const override { return "wfq"; }

private:
    wfq::WfqVirtualTime clock_;
    wfq::TagQuantizer quantizer_;
};

/// WF2Q+: finish rank plus start rank, eligibility against the *exact*
/// GPS virtual time. The flat O(1) WF2Q+ clock, which advances at
/// r/Φ_total over every registered flow, lags GPS whenever part of the
/// flow set idles: a newly active flow then restarts "in the past" and
/// the backlogged flows' packets broke the Parekh–Gallager departure
/// bound by up to 3.4 Lmax/r in the conformance harness. The exact clock
/// meets D_p <= F_gps + Lmax/r with zero slack
/// (Conformance.Wf2qMeetsGpsDepartureBound).
class Wf2qRank final : public RankFunction {
public:
    explicit Wf2qRank(const RankConfig& cfg)
        : clock_(cfg.link_rate_bps), quantizer_(cfg.tag_granularity_bits) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        return clock_.add_flow(weight);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        const Fixed finish = clock_.on_arrival(packet.flow, now, packet.size_bits());
        return {quantizer_.quantize(finish), quantizer_.quantize(clock_.last_start())};
    }
    bool two_stage() const override { return true; }
    std::uint64_t eligibility_horizon(net::TimeNs now) override {
        clock_.advance_to(now);
        return quantizer_.quantize(clock_.virtual_time());
    }
    std::string name() const override { return "wf2q"; }

private:
    wfq::WfqVirtualTime clock_;
    wfq::TagQuantizer quantizer_;
};

/// Per-flow finish chaining shared by the self-clocked family: the start
/// is max(V, the flow's previous finish), the finish adds L/φ.
class FinishChain {
public:
    net::FlowId add_flow(std::uint32_t weight) {
        WFQS_REQUIRE(weight > 0, "flow weight must be positive");
        flows_.push_back({weight, Fixed{}});
        return static_cast<net::FlowId>(flows_.size() - 1);
    }
    Fixed next_finish(const net::Packet& packet, Fixed v) {
        WFQS_REQUIRE(packet.flow < flows_.size(), "unregistered flow");
        Flow& f = flows_[packet.flow];
        f.last_finish =
            max(v, f.last_finish) + Fixed::ratio(packet.size_bits(), f.weight);
        return f.last_finish;
    }

private:
    struct Flow {
        std::uint32_t weight;
        Fixed last_finish;
    };
    std::vector<Flow> flows_;
};

/// SCFQ: the virtual time is the (dequantized) rank of the packet last
/// served, so the clock needs no GPS emulation at all.
class ScfqRank final : public RankFunction {
public:
    explicit ScfqRank(const RankConfig& cfg) : quantizer_(cfg.tag_granularity_bits) {}

    net::FlowId add_flow(std::uint32_t weight) override { return flows_.add_flow(weight); }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        (void)now;
        return {quantizer_.quantize(flows_.next_finish(packet, v_)), 0};
    }
    void on_service(const net::Packet& packet, net::TimeNs now,
                    std::uint64_t rank) override {
        (void)packet;
        (void)now;
        v_ = quantizer_.dequantize(rank);
    }
    std::string name() const override { return "scfq"; }

private:
    wfq::TagQuantizer quantizer_;
    FinishChain flows_;
    Fixed v_;
};

/// FBFQ: V advances by one frame of service (12 kbit, one maximum
/// packet) over the total weight at every frame boundary, then is
/// floored by the largest rank served during the frame, so the linear
/// clock never falls a whole frame behind the real schedule.
class FbfqRank final : public RankFunction {
public:
    static constexpr std::uint32_t kFrameBits = 12000;

    explicit FbfqRank(const RankConfig& cfg) : quantizer_(cfg.tag_granularity_bits) {
        WFQS_REQUIRE(cfg.link_rate_bps > 0, "link rate must be positive");
        frame_ns_ = net::TimeNs{kFrameBits} * 1'000'000'000ULL / cfg.link_rate_bps;
    }

    net::FlowId add_flow(std::uint32_t weight) override {
        total_weight_ += weight;
        return flows_.add_flow(weight);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        advance_frames(now);
        return {quantizer_.quantize(flows_.next_finish(packet, v_)), 0};
    }
    void on_service(const net::Packet& packet, net::TimeNs now,
                    std::uint64_t rank) override {
        (void)packet;
        advance_frames(now);
        const Fixed served = quantizer_.dequantize(rank);
        if (!have_floor_ || served > frame_floor_) {
            frame_floor_ = served;
            have_floor_ = true;
        }
    }
    std::string name() const override { return "fbfq"; }

private:
    void advance_frames(net::TimeNs now) {
        while (now >= frame_start_ + frame_ns_) {
            frame_start_ += frame_ns_;
            if (total_weight_ > 0) v_ += Fixed::ratio(kFrameBits, total_weight_);
            if (have_floor_ && frame_floor_ > v_) v_ = frame_floor_;
            have_floor_ = false;
        }
    }

    net::TimeNs frame_ns_;
    wfq::TagQuantizer quantizer_;
    FinishChain flows_;
    std::uint64_t total_weight_ = 0;
    Fixed v_;
    Fixed frame_floor_;  ///< largest rank served this frame
    bool have_floor_ = false;
    net::TimeNs frame_start_ = 0;
};

/// pFabric-style SRPT: rank = the flow's outstanding bytes the moment
/// the packet arrives (including itself). A flow's early packets carry
/// small ranks, a long flow's tail carries large ones, so short flows
/// finish first. on_service returns the served bytes to the budget.
class SrptRank final : public RankFunction {
public:
    explicit SrptRank(const RankConfig& cfg)
        : shift_(cfg.srpt_shift), max_rank_(cfg.max_rank) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        (void)weight;  // SRPT ignores weights: size is the priority
        outstanding_.push_back(0);
        return static_cast<net::FlowId>(outstanding_.size() - 1);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        (void)now;
        WFQS_REQUIRE(packet.flow < outstanding_.size(), "unregistered flow");
        outstanding_[packet.flow] += packet.size_bytes;
        return {std::min(max_rank_, outstanding_[packet.flow] >> shift_), 0};
    }
    void on_service(const net::Packet& packet, net::TimeNs now,
                    std::uint64_t rank) override {
        (void)now;
        (void)rank;
        WFQS_REQUIRE(packet.flow < outstanding_.size(), "unregistered flow");
        std::uint64_t& left = outstanding_[packet.flow];
        left -= std::min<std::uint64_t>(left, packet.size_bytes);
    }
    std::string name() const override { return "srpt"; }

private:
    unsigned shift_;
    std::uint64_t max_rank_;
    std::vector<std::uint64_t> outstanding_;
};

/// LSTF: rank = (arrival + slack budget) in coarse time units — an
/// arrival-stamped deadline. Heavier weights get tighter budgets, so the
/// policy degenerates to EDF over per-flow deadlines.
class LstfRank final : public RankFunction {
public:
    explicit LstfRank(const RankConfig& cfg)
        : base_slack_ns_(cfg.lstf_slack_ns),
          shift_(cfg.lstf_shift),
          max_rank_(cfg.max_rank) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        slack_ns_.push_back(base_slack_ns_ / std::max<std::uint32_t>(1, weight));
        return static_cast<net::FlowId>(slack_ns_.size() - 1);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        WFQS_REQUIRE(packet.flow < slack_ns_.size(), "unregistered flow");
        return {std::min(max_rank_, (now + slack_ns_[packet.flow]) >> shift_), 0};
    }
    std::string name() const override { return "lstf"; }

private:
    std::uint64_t base_slack_ns_;
    unsigned shift_;
    std::uint64_t max_rank_;
    std::vector<std::uint64_t> slack_ns_;
};

/// Strict priority: the registered weight *is* the priority level (lower
/// value serves first), constant for the flow's lifetime.
class PrioRank final : public RankFunction {
public:
    explicit PrioRank(const RankConfig& cfg) : max_rank_(cfg.max_rank) {}

    net::FlowId add_flow(std::uint32_t weight) override {
        priority_.push_back(std::min<std::uint64_t>(max_rank_, weight));
        return static_cast<net::FlowId>(priority_.size() - 1);
    }
    RankSet on_arrival(const net::Packet& packet, net::TimeNs now) override {
        (void)now;
        WFQS_REQUIRE(packet.flow < priority_.size(), "unregistered flow");
        return {priority_[packet.flow], 0};
    }
    std::string name() const override { return "prio"; }

private:
    std::uint64_t max_rank_;
    std::vector<std::uint64_t> priority_;
};

}  // namespace

std::unique_ptr<RankFunction> make_rank_function(RankPolicy policy,
                                                 const RankConfig& config) {
    switch (policy) {
        case RankPolicy::kWfq: return std::make_unique<WfqRank>(config);
        case RankPolicy::kWf2q: return std::make_unique<Wf2qRank>(config);
        case RankPolicy::kScfq: return std::make_unique<ScfqRank>(config);
        case RankPolicy::kFbfq: return std::make_unique<FbfqRank>(config);
        case RankPolicy::kSrpt: return std::make_unique<SrptRank>(config);
        case RankPolicy::kLstf: return std::make_unique<LstfRank>(config);
        case RankPolicy::kPrio: return std::make_unique<PrioRank>(config);
    }
    WFQS_REQUIRE(false, "unknown rank policy");
    return nullptr;
}

const std::vector<RankPolicy>& all_rank_policies() {
    static const std::vector<RankPolicy> kAll = {
        RankPolicy::kWfq,  RankPolicy::kWf2q, RankPolicy::kScfq, RankPolicy::kFbfq,
        RankPolicy::kSrpt, RankPolicy::kLstf, RankPolicy::kPrio};
    return kAll;
}

std::string rank_policy_name(RankPolicy policy) {
    switch (policy) {
        case RankPolicy::kWfq: return "wfq";
        case RankPolicy::kWf2q: return "wf2q";
        case RankPolicy::kScfq: return "scfq";
        case RankPolicy::kFbfq: return "fbfq";
        case RankPolicy::kSrpt: return "srpt";
        case RankPolicy::kLstf: return "lstf";
        case RankPolicy::kPrio: return "prio";
    }
    return "?";
}

}  // namespace wfqs::sched_prog
