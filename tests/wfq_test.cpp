// Tests for the fair-queueing substrate: GPS fluid reference, the
// fixed-point WFQ virtual clock (incl. paper eq. (1)), the WFQ / WF2Q+ /
// SCFQ / FBFQ rank policies, and the tag quantizer.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "fingerprint.hpp"
#include "sched_prog/rank.hpp"
#include "wfq/gps_fluid.hpp"
#include "wfq/virtual_clock.hpp"

namespace wfqs::wfq {
namespace {

// ------------------------------------------------------------- GPS fluid

TEST(GpsFluid, SingleFlowServesAtFullRate) {
    GpsFluidSim gps(1000.0);  // 1000 b/s
    const int f = gps.add_flow(1.0);
    gps.arrive(f, 0.0, 500.0);
    const auto deps = const_cast<GpsFluidSim&>(gps).drain();
    ASSERT_EQ(deps.size(), 1u);
    EXPECT_NEAR(deps[0].finish_time, 0.5, 1e-9);  // 500 bits at 1000 b/s
}

TEST(GpsFluid, EqualWeightsShareEqually) {
    GpsFluidSim gps(1000.0);
    const int a = gps.add_flow(1.0);
    const int b = gps.add_flow(1.0);
    gps.arrive(a, 0.0, 500.0);
    gps.arrive(b, 0.0, 500.0);
    const auto deps = gps.drain();
    ASSERT_EQ(deps.size(), 2u);
    // Both served at 500 b/s simultaneously: both finish at t = 1.0.
    EXPECT_NEAR(deps[0].finish_time, 1.0, 1e-9);
    EXPECT_NEAR(deps[1].finish_time, 1.0, 1e-9);
}

TEST(GpsFluid, WeightsSkewService) {
    GpsFluidSim gps(1000.0);
    const int heavy = gps.add_flow(3.0);
    const int light = gps.add_flow(1.0);
    gps.arrive(heavy, 0.0, 750.0);
    gps.arrive(light, 0.0, 750.0);
    const auto deps = gps.drain();
    ASSERT_EQ(deps.size(), 2u);
    // Heavy gets 750 b/s -> finishes at 1.0; then light alone:
    // light got 250 bits by t=1, remaining 500 at 1000 b/s -> 1.5.
    EXPECT_EQ(deps[0].flow, heavy);
    EXPECT_NEAR(deps[0].finish_time, 1.0, 1e-9);
    EXPECT_EQ(deps[1].flow, light);
    EXPECT_NEAR(deps[1].finish_time, 1.5, 1e-9);
}

TEST(GpsFluid, IdlePeriodThenNewBusyPeriod) {
    GpsFluidSim gps(1000.0);
    const int f = gps.add_flow(2.0);
    gps.arrive(f, 0.0, 1000.0);  // finishes at 1.0
    gps.arrive(f, 5.0, 1000.0);  // arrives after idle gap
    const auto deps = gps.drain();
    ASSERT_EQ(deps.size(), 2u);
    EXPECT_NEAR(deps[0].finish_time, 1.0, 1e-9);
    EXPECT_NEAR(deps[1].finish_time, 6.0, 1e-9);
}

TEST(GpsFluid, BacklogWithinFlowIsFifo) {
    GpsFluidSim gps(1000.0);
    const int f = gps.add_flow(1.0);
    const int p1 = gps.arrive(f, 0.0, 400.0);
    const int p2 = gps.arrive(f, 0.0, 400.0);
    EXPECT_LT(gps.virtual_finish(p1), gps.virtual_finish(p2));
    const auto deps = gps.drain();
    EXPECT_EQ(deps[0].packet, p1);
    EXPECT_EQ(deps[1].packet, p2);
}

TEST(GpsFluid, VirtualFinishOrderIsGpsFinishOrder) {
    GpsFluidSim gps(10000.0);
    Rng rng(77);
    std::vector<int> flows;
    for (int i = 0; i < 5; ++i) flows.push_back(gps.add_flow(1.0 + i));
    double t = 0.0;
    for (int i = 0; i < 200; ++i) {
        t += rng.next_exponential(0.01);
        gps.arrive(flows[rng.next_below(flows.size())], t,
                   100.0 + rng.next_below(1000));
    }
    const auto deps = gps.drain();
    for (std::size_t i = 1; i < deps.size(); ++i)
        EXPECT_LE(deps[i - 1].finish_time, deps[i].finish_time + 1e-12);
}

TEST(GpsFluid, RejectsBadInput) {
    GpsFluidSim gps(1000.0);
    EXPECT_THROW(GpsFluidSim(0.0), std::invalid_argument);
    EXPECT_THROW(gps.add_flow(0.0), std::invalid_argument);
    const int f = gps.add_flow(1.0);
    EXPECT_THROW(gps.arrive(f + 1, 0.0, 100.0), std::invalid_argument);
    EXPECT_THROW(gps.arrive(f, 0.0, 0.0), std::invalid_argument);
}

// --------------------------------------------------------- virtual clock

TEST(WfqVirtualTime, MatchesGpsFluidOnRandomTraffic) {
    // The fixed-point hardware clock must track the double-precision GPS
    // reference closely over thousands of events.
    const std::uint64_t rate = 1'000'000;  // 1 Mb/s
    WfqVirtualTime vt(rate);
    GpsFluidSim gps(static_cast<double>(rate));
    std::vector<FlowId> vf;
    std::vector<int> gf;
    for (std::uint32_t w : {1u, 2u, 5u, 10u}) {
        vf.push_back(vt.add_flow(w));
        gf.push_back(gps.add_flow(static_cast<double>(w)));
    }
    Rng rng(123);
    TimeNs t = 0;
    for (int i = 0; i < 3000; ++i) {
        t += static_cast<TimeNs>(rng.next_exponential(2e5));  // ~0.2 ms gaps
        const std::size_t fi = rng.next_below(vf.size());
        const std::uint32_t bits = 512 + static_cast<std::uint32_t>(rng.next_below(11488));
        const Fixed tag = vt.on_arrival(vf[fi], t, bits);
        const int pkt = gps.arrive(gf[fi], static_cast<double>(t) / 1e9,
                                   static_cast<double>(bits));
        EXPECT_NEAR(tag.to_double(), gps.virtual_finish(pkt),
                    1e-3 + gps.virtual_finish(pkt) * 1e-6)
            << "packet " << i;
    }
}

TEST(WfqVirtualTime, TagsNeverDecreaseBelowVirtualTime) {
    WfqVirtualTime vt(1'000'000);
    const FlowId a = vt.add_flow(1);
    const FlowId b = vt.add_flow(100);
    Rng rng(9);
    TimeNs t = 0;
    for (int i = 0; i < 500; ++i) {
        t += rng.next_below(1'000'000);
        const FlowId f = rng.next_bool() ? a : b;
        const Fixed tag = vt.on_arrival(f, t, 8000);
        EXPECT_GE(tag, vt.virtual_time());
    }
}

TEST(WfqVirtualTime, IdleSystemHoldsVirtualTime) {
    WfqVirtualTime vt(1'000'000);
    const FlowId f = vt.add_flow(1);
    vt.on_arrival(f, 0, 1000);
    vt.advance_to(1'000'000'000);  // long after the backlog drained
    const Fixed v1 = vt.virtual_time();
    vt.advance_to(2'000'000'000);
    EXPECT_EQ(vt.virtual_time(), v1);
}

TEST(WfqVirtualTime, Eq1NextDeparture) {
    // Paper eq. (1): with one busy flow of weight 1 at rate r, a stamp
    // M = V + delta departs after delta * phi / r seconds.
    const std::uint64_t rate = 1'000'000;
    WfqVirtualTime vt(rate);
    const FlowId f = vt.add_flow(1);
    vt.on_arrival(f, 0, 800'000);  // 0.8 s of backlog
    const Fixed m = vt.virtual_time() + Fixed::from_int(100'000);
    const TimeNs next = vt.eq1_next_departure(m, 0);
    EXPECT_NEAR(static_cast<double>(next), 1e8, 1e3);  // 100 ms
}

TEST(WfqVirtualTime, Eq1WithPastStampReturnsNow) {
    WfqVirtualTime vt(1'000'000);
    const FlowId f = vt.add_flow(1);
    vt.on_arrival(f, 0, 8000);
    EXPECT_EQ(vt.eq1_next_departure(Fixed::from_int(0), 500), 500u);
}

TEST(WfqVirtualTime, Eq1ScalesWithBusyWeight) {
    const std::uint64_t rate = 1'000'000;
    WfqVirtualTime one_flow(rate);
    WfqVirtualTime two_flows(rate);
    const FlowId a1 = one_flow.add_flow(1);
    const FlowId a2 = two_flows.add_flow(1);
    const FlowId b2 = two_flows.add_flow(1);
    one_flow.on_arrival(a1, 0, 800'000);
    two_flows.on_arrival(a2, 0, 800'000);
    two_flows.on_arrival(b2, 0, 800'000);
    const Fixed m1 = one_flow.virtual_time() + Fixed::from_int(1000);
    const Fixed m2 = two_flows.virtual_time() + Fixed::from_int(1000);
    // Twice the busy weight => virtual time advances half as fast => the
    // same virtual distance takes twice as long.
    EXPECT_NEAR(static_cast<double>(two_flows.eq1_next_departure(m2, 0)),
                2.0 * static_cast<double>(one_flow.eq1_next_departure(m1, 0)),
                1e3);
}

TEST(WfqVirtualTime, TiedFlowsMatchGpsFluid) {
    // Flows 0-2 (weights 1, 2, 4) always arrive together with sizes in
    // proportion to their weights, so they share every finish tag and
    // drain at one virtual time; flows 3 and 4 arrive at random and keep
    // the system busy across some of those drains.
    const std::uint64_t rate = 1'000'000;
    WfqVirtualTime vt(rate);
    GpsFluidSim gps(static_cast<double>(rate));
    const std::uint32_t weights[] = {1, 2, 4, 3, 5};
    for (const std::uint32_t w : weights) {
        vt.add_flow(w);
        gps.add_flow(static_cast<double>(w));
    }
    const auto arrive = [&](FlowId f, TimeNs t, std::uint32_t bits) {
        const Fixed tag = vt.on_arrival(f, t, bits);
        const int pkt = gps.arrive(static_cast<int>(f), static_cast<double>(t) / 1e9,
                                   static_cast<double>(bits));
        EXPECT_NEAR(tag.to_double(), gps.virtual_finish(pkt),
                    1e-3 + gps.virtual_finish(pkt) * 1e-6);
        EXPECT_NEAR(vt.virtual_time().to_double(), gps.virtual_time(),
                    1e-3 + gps.virtual_time() * 1e-6);
        return tag;
    };
    Rng rng(77);
    TimeNs t = 0;
    int full_drains = 0;
    for (int round = 0; round < 400; ++round) {
        // Gaps from 0.1 to ~60 ms: some drain the tied group (or the whole
        // system) before the next round, some land in the middle of it.
        t += 100'000 + rng.next_below(60'000'000);
        vt.advance_to(t);
        if (vt.busy_weight() == 0) ++full_drains;
        const std::uint32_t base = 500 + static_cast<std::uint32_t>(rng.next_below(2000));
        const Fixed tied = arrive(0, t, base);
        EXPECT_EQ(arrive(1, t, 2 * base), tied);
        EXPECT_EQ(arrive(2, t, 4 * base), tied);
        for (FlowId f = 3; f < 5; ++f)
            if (rng.next_bool(0.6))
                arrive(f, t, 512 + static_cast<std::uint32_t>(rng.next_below(6000)));
    }
    EXPECT_GT(full_drains, 20);
    EXPECT_LT(full_drains, 380);
}

TEST(WfqVirtualTime, RankStreamMatchesPinnedFingerprint) {
    // Every RankSet of the WFQ and WF2Q+ rank functions, the WF2Q+
    // eligibility horizon at each service, and the raw clock's V, busy
    // weight and eq. (1) departure after each event, over 256 flows with
    // weights 1..8 on a 1 Gb/s link. Every fourth round opens with a
    // burst to every flow, sized in proportion to its weight, after a
    // quiet gap: flows idle at that point share one finish tag and drain
    // at the same virtual time. Random rounds in between keep part of the
    // flow set busy. Ranks are unquantized (granularity 32), so the pin
    // covers the clock bit for bit. The value was recorded from the clock
    // that queued one idle event per arrival and pruned stale ones lazily.
    sched_prog::RankConfig cfg;
    cfg.link_rate_bps = 1'000'000'000;
    cfg.tag_granularity_bits = static_cast<int>(Fixed::kFracBits);
    auto wfq = sched_prog::make_rank_function(sched_prog::RankPolicy::kWfq, cfg);
    auto wf2q = sched_prog::make_rank_function(sched_prog::RankPolicy::kWf2q, cfg);
    WfqVirtualTime clock(cfg.link_rate_bps);
    constexpr std::uint32_t kFlows = 256;
    for (std::uint32_t i = 0; i < kFlows; ++i) {
        const std::uint32_t w = 1 + i % 8;
        wfq->add_flow(w);
        wf2q->add_flow(w);
        clock.add_flow(w);
    }
    Fingerprint fp;
    std::uint64_t id = 0;
    std::uint64_t tied_drains = 0;
    const auto arrive = [&](FlowId flow, TimeNs now, std::uint32_t bytes) {
        net::Packet p;
        p.id = id++;
        p.flow = flow;
        p.size_bytes = bytes;
        p.arrival_ns = now;
        const auto a = wfq->on_arrival(p, now);
        const auto b = wf2q->on_arrival(p, now);
        const Fixed finish = clock.on_arrival(flow, now, p.size_bits());
        // The raw clock sees the same advance_to calls as the WF2Q+ one.
        EXPECT_EQ(b.rank, finish.raw());
        EXPECT_EQ(b.start, clock.last_start().raw());
        fp.mix(a.rank);
        fp.mix(a.start);
        fp.mix(b.rank);
        fp.mix(b.start);
        fp.mix(clock.virtual_time().raw());
        fp.mix(clock.busy_weight());
    };
    const auto serve = [&](TimeNs now) {
        const std::uint64_t busy_before = clock.busy_weight();
        const std::uint64_t horizon = wf2q->eligibility_horizon(now);
        const TimeNs next = clock.eq1_next_departure(
            clock.virtual_time() + Fixed::from_int(4000), now);
        EXPECT_EQ(horizon, clock.virtual_time().raw());
        // More than one flow's weight left the busy set at once.
        if (busy_before - clock.busy_weight() > 8) ++tied_drains;
        fp.mix(horizon);
        fp.mix(clock.busy_weight());
        fp.mix(next);
    };
    Rng rng(2024);
    TimeNs now = 0;
    for (int round = 0; round < 48; ++round) {
        if (round % 4 == 0) {
            now += 2'000'000 + rng.next_below(2'000'000);
            const std::uint32_t base = 40 + static_cast<std::uint32_t>(rng.next_below(150));
            for (FlowId f = 0; f < kFlows; ++f) arrive(f, now, base * (1 + f % 8));
        }
        for (int i = 0; i < 300; ++i) {
            now += rng.next_below(12'000);
            if (rng.next_bool(0.7)) {
                arrive(static_cast<FlowId>(rng.next_below(kFlows)), now,
                       64 + static_cast<std::uint32_t>(rng.next_below(1437)));
            } else {
                serve(now);
            }
        }
        // Walk across the drain points in small steps.
        for (int i = 0; i < 40; ++i) {
            now += 25'000;
            serve(now);
        }
    }
    EXPECT_GT(tied_drains, 10u);
    EXPECT_EQ(id, 13187u);
    EXPECT_EQ(fp.value(), 0xcb3f40be1595dc07ULL);
}

// ----------------------------------------------------------- tag family
//
// The fair-queueing family lives on as sched_prog rank policies; these
// tests drive them at granularity 0, so a rank is the virtual finish
// time truncated to whole virtual-time units.

using sched_prog::RankPolicy;

constexpr RankPolicy kFairQueueingPolicies[] = {RankPolicy::kWfq, RankPolicy::kWf2q,
                                                RankPolicy::kScfq, RankPolicy::kFbfq};

std::unique_ptr<sched_prog::RankFunction> make_fq_rank(RankPolicy policy) {
    sched_prog::RankConfig cfg;
    cfg.link_rate_bps = 1'000'000;
    cfg.tag_granularity_bits = 0;
    return sched_prog::make_rank_function(policy, cfg);
}

/// Rank of a `size_bytes` packet on `flow` arriving at `now`.
std::uint64_t rank_of(sched_prog::RankFunction& fn, FlowId flow, TimeNs now,
                      std::uint32_t size_bytes) {
    net::Packet p;
    p.flow = flow;
    p.size_bytes = size_bytes;
    p.arrival_ns = now;
    return fn.on_arrival(p, now).rank;
}

/// Report the service of a packet of rank `rank` at `now`.
void serve(sched_prog::RankFunction& fn, TimeNs now, std::uint64_t rank) {
    fn.on_service(net::Packet{}, now, rank);
}

TEST(FairQueueingRanks, AllProduceMonotoneTagsPerFlow) {
    for (const auto policy : kFairQueueingPolicies) {
        auto fn = make_fq_rank(policy);
        const FlowId f = fn->add_flow(3);
        std::uint64_t prev = 0;
        TimeNs t = 0;
        Rng rng(static_cast<std::uint64_t>(policy) + 1);
        for (int i = 0; i < 200; ++i) {
            t += rng.next_below(100'000);
            const std::uint64_t rank = rank_of(*fn, f, t, 1000);
            EXPECT_GT(rank, prev) << fn->name();
            prev = rank;
        }
    }
}

TEST(FairQueueingRanks, WeightScalesServiceInterval) {
    for (const auto policy : kFairQueueingPolicies) {
        auto fn = make_fq_rank(policy);
        const FlowId light = fn->add_flow(1);
        const FlowId heavy = fn->add_flow(10);
        // Back-to-back packets on each flow at t=0: the finish-tag spacing
        // within a flow is L/phi.
        const std::uint64_t l1 = rank_of(*fn, light, 0, 125);
        const std::uint64_t l2 = rank_of(*fn, light, 0, 125);
        const std::uint64_t h1 = rank_of(*fn, heavy, 0, 125);
        const std::uint64_t h2 = rank_of(*fn, heavy, 0, 125);
        EXPECT_EQ(l2 - l1, 1000u) << fn->name();
        EXPECT_EQ(h2 - h1, 100u) << fn->name();
    }
}

TEST(Scfq, VirtualTimeFollowsServiceTag) {
    auto scfq = make_fq_rank(RankPolicy::kScfq);
    const FlowId f = scfq->add_flow(1);
    const FlowId g = scfq->add_flow(1);
    const std::uint64_t t1 = rank_of(*scfq, f, 0, 125);
    serve(*scfq, 10, t1);
    // A new arrival on another flow starts from the service tag.
    EXPECT_EQ(rank_of(*scfq, g, 20, 125), t1 + 1000);
}

TEST(Fbfq, VirtualTimeAdvancesInFrames) {
    // 12000-bit frames at 1 Mb/s = 12 ms per frame; one flow, weight 1:
    // V advances by 12000/1 per frame boundary. A probe arrival on the
    // flow starts at max(V, its previous finish).
    auto fbfq = make_fq_rank(RankPolicy::kFbfq);
    const FlowId f = fbfq->add_flow(1);
    EXPECT_EQ(rank_of(*fbfq, f, 0, 125), 1000u);
    EXPECT_EQ(rank_of(*fbfq, f, 11'999'999, 125), 2000u);  // still frame 0
    EXPECT_EQ(rank_of(*fbfq, f, 12'000'000, 125), 13000u);  // V = 12000
}

TEST(Fbfq, RecalibratesToTheServicePoint) {
    // The linear clock lags when only part of the weight is busy; the
    // frame boundary floors V by the tag most recently dispatched so the
    // lag is bounded by one frame.
    auto fbfq = make_fq_rank(RankPolicy::kFbfq);
    const FlowId a = fbfq->add_flow(1);
    const FlowId probe = fbfq->add_flow(9);  // mostly idle weight drags the clock
    const std::uint64_t served = rank_of(*fbfq, a, 0, 1250);
    // Service reaches tag 10000 while the linear clock is still at 0; a
    // 72-bit probe on the weight-9 flow finishes 8 units past V.
    serve(*fbfq, 11'000'000, served);
    EXPECT_EQ(served, 10000u);
    EXPECT_EQ(rank_of(*fbfq, probe, 11'000'000, 9), 8u);
    // The boundary lifts V from 12000/10 to the service point.
    serve(*fbfq, 12'000'000, served);
    EXPECT_EQ(rank_of(*fbfq, probe, 12'000'000, 9), served + 8);
}

TEST(Fbfq, FairnessCloseToWfqUnderSaturation) {
    // §I-B / ref [7]: FBFQ is "less complex than WFQ, but is almost as
    // fair". Finishing tags of two backlogged flows maintain the weight
    // ratio under both clocks.
    auto fbfq = make_fq_rank(RankPolicy::kFbfq);
    auto wfq = make_fq_rank(RankPolicy::kWfq);
    const FlowId fa = fbfq->add_flow(3), fb = fbfq->add_flow(1);
    const FlowId wa = wfq->add_flow(3), wb = wfq->add_flow(1);
    std::uint64_t fb_last = 0, wb_last = 0, fa_last = 0, wa_last = 0;
    for (int i = 0; i < 200; ++i) {
        const TimeNs t = static_cast<TimeNs>(i) * 2'000'000;
        fa_last = rank_of(*fbfq, fa, t, 188);
        fb_last = rank_of(*fbfq, fb, t, 63);
        wa_last = rank_of(*wfq, wa, t, 188);
        wb_last = rank_of(*wfq, wb, t, 63);
    }
    // Per-flow finish-tag growth (= inverse service share) agrees within
    // a few percent between the two clocks.
    EXPECT_NEAR(static_cast<double>(fa_last) / static_cast<double>(wa_last), 1.0, 0.05);
    EXPECT_NEAR(static_cast<double>(fb_last) / static_cast<double>(wb_last), 1.0, 0.05);
}

TEST(Fbfq, RejectsBadConfig) {
    sched_prog::RankConfig cfg;
    cfg.link_rate_bps = 0;
    EXPECT_THROW(sched_prog::make_rank_function(RankPolicy::kFbfq, cfg),
                 std::invalid_argument);
}

// ------------------------------------------------------------ quantizer

TEST(TagQuantizer, ZeroGranularityTruncatesToInteger) {
    TagQuantizer q(0);
    EXPECT_EQ(q.quantize(Fixed::from_double(5.9)), 5u);
    EXPECT_EQ(q.quantize(Fixed::from_int(7)), 7u);
}

TEST(TagQuantizer, GranularityAddsFractionalBits) {
    TagQuantizer q(2);  // quarter steps
    EXPECT_EQ(q.quantize(Fixed::from_double(1.30)), 5u);  // 1.25 -> 5 quarters
    EXPECT_DOUBLE_EQ(q.tag_step_virtual(), 0.25);
}

TEST(TagQuantizer, CoarseQuantizationCreatesDuplicates) {
    TagQuantizer coarse(0);
    TagQuantizer fine(8);
    const Fixed a = Fixed::from_double(3.1);
    const Fixed b = Fixed::from_double(3.7);
    EXPECT_EQ(coarse.quantize(a), coarse.quantize(b));
    EXPECT_NE(fine.quantize(a), fine.quantize(b));
}

TEST(TagQuantizer, RejectsExcessGranularity) {
    EXPECT_THROW(TagQuantizer(33), std::invalid_argument);
}

TEST(TagQuantizer, PreservesOrder) {
    TagQuantizer q(4);
    Rng rng(31);
    Fixed prev;
    std::uint64_t prev_q = 0;
    for (int i = 0; i < 1000; ++i) {
        const Fixed v = prev + Fixed::from_raw(rng.next_below(1'000'000'000));
        EXPECT_GE(q.quantize(v), prev_q);
        prev_q = q.quantize(v);
        prev = v;
    }
}

}  // namespace
}  // namespace wfqs::wfq
