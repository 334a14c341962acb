// The programmable scheduling layer (src/sched_prog) under test:
//
//   * rank-function units — determinism across independent instances
//     (the property the whole oracle scheme rests on), policy shapes;
//   * PifoScheduler / SpPifoScheduler / RifoScheduler behaviour;
//   * hierarchical composition (strict priority over DWRR / class WFQ);
//   * the rank-oracle lockstep differ across every row of
//     standard_policy_configs() — every exact policy on both sorter
//     backends and the approximations against their mirrors;
//   * GPS departure bounds for the WFQ and WF2Q+ rank policies across
//     30+ seeds (satellite 2);
//   * the committed policy corpus artifacts: SP-PIFO queue-boundary
//     inversions and SRPT starvation pinned as behaviour, not just as
//     divergence-free replays (satellite 3).
#include <gtest/gtest.h>

#include <set>

#include "fault/errors.hpp"
#include "proptest/differ.hpp"
#include "proptest/proptest.hpp"
#include "ref/ref_rank_oracle.hpp"
#include "sched_prog/hierarchy.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "sched_prog/rifo.hpp"
#include "sched_prog/sp_pifo.hpp"
#include "scheduler/fifo.hpp"

#ifndef WFQS_CORPUS_DIR
#error "WFQS_CORPUS_DIR must point at tests/corpus"
#endif

namespace wfqs {
namespace {

using proptest::Op;
using proptest::OpKind;
using proptest::OpSeq;
using sched_prog::RankConfig;
using sched_prog::RankPolicy;

net::Packet make_packet(std::uint64_t id, net::FlowId flow,
                        std::uint32_t bytes, net::TimeNs now) {
    net::Packet p;
    p.id = id;
    p.flow = flow;
    p.size_bytes = bytes;
    p.arrival_ns = now;
    return p;
}

// ------------------------------------------------- rank-function units

TEST(RankFunction, IndependentInstancesAgree) {
    // Two instances of the same policy fed the identical (packet, now)
    // stream produce identical ranks — the determinism contract the
    // lockstep oracles depend on.
    for (const RankPolicy policy : sched_prog::all_rank_policies()) {
        auto a = sched_prog::make_rank_function(policy);
        auto b = sched_prog::make_rank_function(policy);
        for (const std::uint32_t w : {1u, 2u, 4u, 8u}) {
            ASSERT_EQ(a->add_flow(w), b->add_flow(w));
        }
        Rng rng(7);
        net::TimeNs now = 0;
        for (std::uint64_t id = 1; id <= 500; ++id) {
            now += 500 + rng.next_below(1000);
            const auto pkt = make_packet(
                id, static_cast<net::FlowId>(rng.next_below(4)),
                64 + static_cast<std::uint32_t>(rng.next_below(1400)), now);
            const auto ra = a->on_arrival(pkt, now);
            const auto rb = b->on_arrival(pkt, now);
            EXPECT_EQ(ra.rank, rb.rank) << a->name() << " packet " << id;
            EXPECT_EQ(ra.start, rb.start) << a->name() << " packet " << id;
            if (id % 3 == 0) {
                a->on_service(pkt, now, ra.rank);
                b->on_service(pkt, now, rb.rank);
            }
        }
    }
}

TEST(RankFunction, PrioIsConstantPerFlow) {
    auto prio = sched_prog::make_rank_function(RankPolicy::kPrio);
    const auto f1 = prio->add_flow(3);
    const auto f2 = prio->add_flow(7);
    for (net::TimeNs now : {100u, 100000u, 10000000u}) {
        EXPECT_EQ(prio->on_arrival(make_packet(1, f1, 500, now), now).rank, 3u);
        EXPECT_EQ(prio->on_arrival(make_packet(2, f2, 900, now), now).rank, 7u);
    }
    EXPECT_FALSE(prio->two_stage());
}

TEST(RankFunction, SrptTracksOutstandingBytes) {
    RankConfig cfg;
    cfg.srpt_shift = 0;  // raw bytes, easiest to reason about
    auto srpt = sched_prog::make_rank_function(RankPolicy::kSrpt, cfg);
    const auto f = srpt->add_flow(1);
    const auto p1 = make_packet(1, f, 1000, 0);
    const auto p2 = make_packet(2, f, 500, 10);
    EXPECT_EQ(srpt->on_arrival(p1, 0).rank, 1000u);
    EXPECT_EQ(srpt->on_arrival(p2, 10).rank, 1500u);
    srpt->on_service(p1, 20);  // bytes leave the backlog once served
    EXPECT_EQ(srpt->on_arrival(make_packet(3, f, 100, 30), 30).rank, 600u);
}

TEST(RankFunction, LstfHeavierWeightsGetTighterDeadlines) {
    RankConfig cfg;
    cfg.lstf_shift = 0;
    auto lstf = sched_prog::make_rank_function(RankPolicy::kLstf, cfg);
    const auto light = lstf->add_flow(1);
    const auto heavy = lstf->add_flow(8);
    const net::TimeNs now = 1'000'000;
    const auto r_light = lstf->on_arrival(make_packet(1, light, 500, now), now);
    const auto r_heavy = lstf->on_arrival(make_packet(2, heavy, 500, now), now);
    EXPECT_LT(r_heavy.rank, r_light.rank);
}

TEST(RankFunction, OnlyWf2qIsTwoStage) {
    for (const RankPolicy policy : sched_prog::all_rank_policies()) {
        auto fn = sched_prog::make_rank_function(policy);
        EXPECT_EQ(fn->two_stage(), policy == RankPolicy::kWf2q) << fn->name();
    }
}

// --------------------------------------------------- PifoScheduler

sched_prog::QueueFactory heap_factory() {
    return [] {
        return baselines::make_tag_queue(baselines::QueueKind::Heap, {});
    };
}

TEST(PifoScheduler, ServesInRankOrder) {
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kPrio;
    sched_prog::PifoScheduler sched(cfg, heap_factory());
    const auto urgent = sched.add_flow(1);
    const auto relaxed = sched.add_flow(9);
    ASSERT_TRUE(sched.enqueue(make_packet(1, relaxed, 700, 0), 0));
    ASSERT_TRUE(sched.enqueue(make_packet(2, urgent, 300, 10), 10));
    ASSERT_TRUE(sched.enqueue(make_packet(3, relaxed, 700, 20), 20));
    EXPECT_EQ(sched.queued_packets(), 3u);
    EXPECT_EQ(sched.peek_size(30), std::optional<std::uint32_t>{300});
    EXPECT_EQ(sched.dequeue(30)->id, 2u);   // priority 1 first
    EXPECT_EQ(sched.dequeue(40)->id, 1u);   // then FIFO among priority 9
    EXPECT_EQ(sched.dequeue(50)->id, 3u);
    EXPECT_FALSE(sched.has_packets());
    EXPECT_EQ(sched.name(), "PIFO-prio(binary heap)");
}

TEST(PifoScheduler, Wf2qBuildsTwoQueuesAndDrainsCompletely) {
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kWf2q;
    sched_prog::PifoScheduler sched(cfg, heap_factory());
    const auto f = sched.add_flow(1);
    net::TimeNs now = 0;
    for (std::uint64_t id = 1; id <= 20; ++id) {
        now += 1000;
        ASSERT_TRUE(sched.enqueue(make_packet(id, f, 1000, now), now));
    }
    // Everything queued must come back out (forced promotion included),
    // in arrival order for a single flow.
    std::uint64_t expect = 1;
    while (sched.has_packets()) {
        now += 8000;
        const auto pkt = sched.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        EXPECT_EQ(pkt->id, expect++);
    }
    EXPECT_EQ(expect, 21u);
}

/// TagQueue decorator whose every `period`-th insert throws a FaultError
/// before reaching the inner queue, the way a parity check on the
/// insert's tree walk refuses the op; recover() forwards and is counted.
class FaultyInsertQueue final : public baselines::TagQueue {
public:
    FaultyInsertQueue(std::unique_ptr<TagQueue> inner, std::uint64_t period,
                      std::uint64_t* recoveries)
        : inner_(std::move(inner)), period_(period), recoveries_(recoveries) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        if (++inserts_ % period_ == 0) throw fault::FaultError("injected insert fault");
        inner_->insert(tag, payload);
    }
    std::optional<baselines::QueueEntry> pop_min() override { return inner_->pop_min(); }
    std::optional<baselines::QueueEntry> peek_min() override { return inner_->peek_min(); }
    std::size_t size() const override { return inner_->size(); }
    std::string name() const override { return inner_->name(); }
    std::string model() const override { return inner_->model(); }
    std::string complexity() const override { return inner_->complexity(); }
    bool recover() override {
        ++*recoveries_;
        return inner_->recover();
    }

private:
    std::unique_ptr<TagQueue> inner_;
    std::uint64_t period_;
    std::uint64_t inserts_ = 0;
    std::uint64_t* recoveries_;
};

/// Model-backend multi-bit tree queues behind FaultyInsertQueue.
sched_prog::QueueFactory faulty_model_factory(std::uint64_t period,
                                              std::uint64_t* recoveries) {
    return [=] {
        return std::make_unique<FaultyInsertQueue>(
            baselines::make_tag_queue(baselines::QueueKind::MultibitTree, {20, 1 << 16}),
            period, recoveries);
    };
}

TEST(PifoScheduler, FaultedInsertReleasesSlotAndBufferCell) {
    // 16 cells: a 320 B packet (5 cells) plus a 640 B one (10 cells) fit,
    // but not if the faulted attempt at the second had leaked its cells —
    // the retry would then be a tail drop.
    std::uint64_t recoveries = 0;
    sched_prog::PifoScheduler::Config cfg;
    cfg.buffer = {1024, 64};
    sched_prog::PifoScheduler sched(cfg, faulty_model_factory(2, &recoveries));
    const auto f = sched.add_flow(1);
    ASSERT_TRUE(sched.enqueue(make_packet(1, f, 320, 0), 0));
    EXPECT_THROW(sched.enqueue(make_packet(2, f, 640, 0), 0), fault::FaultError);
    EXPECT_EQ(sched.queued_packets(), 1u);
    EXPECT_TRUE(sched.recover());
    EXPECT_EQ(recoveries, 1u);
    ASSERT_TRUE(sched.enqueue(make_packet(2, f, 640, 0), 0));
    EXPECT_EQ(sched.drops(), 0u);
    EXPECT_EQ(sched.dequeue(10)->id, 1u);
    EXPECT_EQ(sched.dequeue(20)->id, 2u);
    EXPECT_FALSE(sched.has_packets());
}

TEST(PifoScheduler, RecoverScrubsBothSortStructures) {
    std::uint64_t recoveries = 0;
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kWf2q;
    sched_prog::PifoScheduler sched(cfg, faulty_model_factory(1000, &recoveries));
    EXPECT_TRUE(sched.recover());
    EXPECT_EQ(recoveries, 2u);
    // The software baselines have no scrub path.
    sched_prog::PifoScheduler heap(cfg, heap_factory());
    EXPECT_FALSE(heap.recover());
}

TEST(PifoScheduler, SimDriverRecoversFromFaultedInserts) {
    // The driver's scheduler-recovery path end to end: every 25th sorter
    // insert faults, the scheduler releases the packet's slot and cell,
    // the driver recovers the model sorter and retries, and every offered
    // packet still departs.
    std::uint64_t recoveries = 0;
    sched_prog::PifoScheduler::Config cfg;
    cfg.rank.link_rate_bps = 20'000'000;
    sched_prog::PifoScheduler sched(cfg, faulty_model_factory(25, &recoveries));
    auto flows = net::make_mixed_profile(1'000'000'000 / 5, 13);
    obs::MetricsRegistry reg;
    net::SimDriver driver(20'000'000);
    driver.attach_metrics(reg);
    const auto result = driver.run(sched, flows);

    const auto faults = reg.counter_values().at("net.sorter_faults");
    EXPECT_GT(faults, 0u);
    EXPECT_EQ(faults, result.sorter_faults);
    EXPECT_EQ(recoveries, faults);
    EXPECT_EQ(result.dropped_packets, 0u);
    EXPECT_EQ(result.records.size(), result.offered_packets);
    EXPECT_FALSE(sched.has_packets());
}

// --------------------------------------------------- SpPifoScheduler

TEST(SpPifoScheduler, PushUpAndPushDown) {
    sched_prog::SpPifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kPrio;
    cfg.num_queues = 2;
    sched_prog::SpPifoScheduler sched(cfg);
    const auto high = sched.add_flow(10);  // rank 10
    const auto mid = sched.add_flow(5);    // rank 5
    const auto low = sched.add_flow(2);    // rank 2
    // Rank 10 lands in the bottom queue (bound 0 -> 10); rank 5
    // undercuts it and push-ups into the top queue (bound 0 -> 5).
    ASSERT_TRUE(sched.enqueue(make_packet(1, high, 100, 0), 0));
    ASSERT_TRUE(sched.enqueue(make_packet(2, mid, 100, 10), 10));
    EXPECT_EQ(sched.push_ups(), 2u);
    EXPECT_EQ(sched.push_downs(), 0u);
    // Rank 2 undercuts *every* bound: push-down (all bounds drop by the
    // undershoot 3) and the packet enters the top queue behind rank 5.
    ASSERT_TRUE(sched.enqueue(make_packet(3, low, 100, 20), 20));
    EXPECT_EQ(sched.push_downs(), 1u);
    // Strict priority + FIFO: top queue serves 5 then 2 — the scheduled
    // inversion SP-PIFO trades for queue count — then the bottom's 10.
    EXPECT_EQ(sched.dequeue(30)->id, 2u);
    EXPECT_EQ(sched.dequeue(40)->id, 3u);
    EXPECT_EQ(sched.dequeue(50)->id, 1u);
}

TEST(SpPifoScheduler, RejectsTwoStagePolicies) {
    sched_prog::SpPifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kWf2q;
    EXPECT_THROW(sched_prog::SpPifoScheduler{cfg}, std::invalid_argument);
}

// --------------------------------------------------- RifoScheduler

TEST(RifoScheduler, AdmissionPredicate) {
    using sched_prog::RifoScheduler;
    // Empty queue admits anything; full queue admits nothing.
    EXPECT_TRUE(RifoScheduler::admits(900, 0, 8, 0, 0));
    EXPECT_FALSE(RifoScheduler::admits(0, 8, 8, 0, 900));
    // At or below the queue minimum: always admitted.
    EXPECT_TRUE(RifoScheduler::admits(5, 4, 8, 5, 100));
    // Inside the lower free-fraction of the range: (rank-min)*cap vs
    // (max-min)*free — rank 30, range [0,100], 4/8 free: 30*8=240 <=
    // 100*4=400 admits; rank 60: 480 > 400 rejects.
    EXPECT_TRUE(RifoScheduler::admits(30, 4, 8, 0, 100));
    EXPECT_FALSE(RifoScheduler::admits(60, 4, 8, 0, 100));
}

TEST(RifoScheduler, ShedsHighRanksUnderPressure) {
    sched_prog::RifoScheduler::Config cfg;
    cfg.policy = RankPolicy::kPrio;
    cfg.fifo_capacity = 4;
    sched_prog::RifoScheduler sched(cfg);
    const auto urgent = sched.add_flow(1);
    const auto bulk = sched.add_flow(1000);
    net::TimeNs now = 0;
    std::uint64_t id = 1;
    // An empty queue admits anything, and ranks at or below the queue
    // minimum always enter.
    ASSERT_TRUE(sched.enqueue(make_packet(id++, bulk, 100, now), now));
    ASSERT_TRUE(sched.enqueue(make_packet(id++, urgent, 100, now), now));
    ASSERT_TRUE(sched.enqueue(make_packet(id++, urgent, 100, now), now));
    // 3/4 full with rank range [1, 1000]: another rank-1000 packet falls
    // outside the lower free-fraction of the range — shed.
    EXPECT_FALSE(sched.enqueue(make_packet(id++, bulk, 100, now), now));
    EXPECT_EQ(sched.rank_drops(), 1u);
    EXPECT_TRUE(sched.enqueue(make_packet(id++, urgent, 100, now), now));
    // Service stays strictly FIFO regardless of rank.
    EXPECT_EQ(sched.dequeue(now)->id, 1u);
    EXPECT_EQ(sched.dequeue(now)->id, 2u);
    EXPECT_EQ(sched.dequeue(now)->id, 3u);
}

// --------------------------------------------------- hierarchy

std::unique_ptr<scheduler::Scheduler> make_fifo_child() {
    return std::make_unique<scheduler::FifoScheduler>();
}

TEST(HierScheduler, StrictPriorityProtectsTheEfClass) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig ef;
    ef.priority = 0;
    ef.sharing = sched_prog::HierScheduler::Sharing::kWfq;
    sched_prog::HierScheduler::ClassConfig be;
    be.priority = 1;
    be.sharing = sched_prog::HierScheduler::Sharing::kWfq;
    const unsigned ef_cls = hier.add_class(ef, make_fifo_child());
    const unsigned be_cls = hier.add_class(be, make_fifo_child());
    const auto ef_flow = hier.add_flow_in_class(ef_cls, 1);
    const auto be_flow = hier.add_flow_in_class(be_cls, 1);

    net::TimeNs now = 0;
    std::uint64_t id = 1;
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(hier.enqueue(make_packet(id++, be_flow, 500, now), now));
    for (int i = 0; i < 3; ++i)
        ASSERT_TRUE(hier.enqueue(make_packet(id++, ef_flow, 200, now), now));
    // All EF packets leave before any best-effort one, and the returned
    // flow ids are the *global* ids the driver registered.
    for (int i = 0; i < 3; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        EXPECT_EQ(pkt->flow, ef_flow);
    }
    for (int i = 0; i < 5; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        EXPECT_EQ(pkt->flow, be_flow);
    }
    EXPECT_FALSE(hier.has_packets());
}

TEST(HierScheduler, DwrrSharesFollowQuanta) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig big;
    big.priority = 1;
    big.quantum_bytes = 3000;
    sched_prog::HierScheduler::ClassConfig small;
    small.priority = 1;
    small.quantum_bytes = 1000;
    const unsigned big_cls = hier.add_class(big, make_fifo_child());
    const unsigned small_cls = hier.add_class(small, make_fifo_child());
    const auto big_flow = hier.add_flow_in_class(big_cls, 1);
    const auto small_flow = hier.add_flow_in_class(small_cls, 1);

    net::TimeNs now = 0;
    std::uint64_t id = 1;
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(hier.enqueue(make_packet(id++, big_flow, 500, now), now));
        ASSERT_TRUE(hier.enqueue(make_packet(id++, small_flow, 500, now), now));
    }
    std::uint64_t big_bytes = 0, small_bytes = 0;
    for (int i = 0; i < 400; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        (pkt->flow == big_flow ? big_bytes : small_bytes) += pkt->size_bytes;
    }
    // Both backlogged throughout: service ratio ~= quantum ratio 3:1.
    const double ratio = static_cast<double>(big_bytes) /
                         static_cast<double>(small_bytes);
    EXPECT_NEAR(ratio, 3.0, 0.35) << big_bytes << " vs " << small_bytes;
}

TEST(HierScheduler, ClassWfqSharesFollowWeights) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig gold;
    gold.priority = 1;
    gold.weight = 3;
    gold.sharing = sched_prog::HierScheduler::Sharing::kWfq;
    sched_prog::HierScheduler::ClassConfig bronze = gold;
    bronze.weight = 1;
    const unsigned gold_cls = hier.add_class(gold, make_fifo_child());
    const unsigned bronze_cls = hier.add_class(bronze, make_fifo_child());
    const auto gold_flow = hier.add_flow_in_class(gold_cls, 1);
    const auto bronze_flow = hier.add_flow_in_class(bronze_cls, 1);

    net::TimeNs now = 0;
    std::uint64_t id = 1;
    for (int i = 0; i < 300; ++i) {
        ASSERT_TRUE(hier.enqueue(make_packet(id++, gold_flow, 500, now), now));
        ASSERT_TRUE(hier.enqueue(make_packet(id++, bronze_flow, 500, now), now));
    }
    std::uint64_t gold_bytes = 0, bronze_bytes = 0;
    for (int i = 0; i < 400; ++i) {
        const auto pkt = hier.dequeue(now);
        ASSERT_TRUE(pkt.has_value());
        (pkt->flow == gold_flow ? gold_bytes : bronze_bytes) += pkt->size_bytes;
    }
    const double ratio = static_cast<double>(gold_bytes) /
                         static_cast<double>(bronze_bytes);
    EXPECT_NEAR(ratio, 3.0, 0.35) << gold_bytes << " vs " << bronze_bytes;
}

TEST(HierScheduler, RoutedAddFlowRoundRobinsOverClasses) {
    sched_prog::HierScheduler hier;
    sched_prog::HierScheduler::ClassConfig c;
    c.priority = 1;
    const unsigned c0 = hier.add_class(c, make_fifo_child());
    (void)hier.add_class(c, make_fifo_child());
    const auto f0 = hier.add_flow(1);
    const auto f1 = hier.add_flow(1);
    const auto f2 = hier.add_flow(1);
    EXPECT_EQ(f0, 0u);
    EXPECT_EQ(f1, 1u);
    EXPECT_EQ(f2, 2u);
    // f0 and f2 share class 0; the child saw two local flows.
    ASSERT_TRUE(hier.enqueue(make_packet(1, f2, 100, 0), 0));
    const auto pkt = hier.dequeue(0);
    ASSERT_TRUE(pkt.has_value());
    EXPECT_EQ(pkt->flow, f2);
    (void)c0;
}

// --------------------------------- rank-oracle lockstep differ sweep

TEST(PolicyDiffer, EveryConfigAgainstItsOracle) {
    const auto profiles = proptest::policy_profiles();
    for (const auto& cfg : proptest::standard_policy_configs()) {
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            Rng rng(proptest::case_seed(0xC0FFEE, pi * 131 + 7));
            const OpSeq ops = proptest::generate(rng, 300, profiles[pi]);
            const auto err = proptest::diff_policy_scheduler(ops, cfg);
            ASSERT_EQ(err, std::nullopt)
                << cfg.name << " profile " << profiles[pi].name << ": " << *err;
        }
    }
}

// ------------------------------------------ GPS bounds (satellite 2)

TEST(PolicyGpsBound, WfqRankPolicyHoldsAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        proptest::SchedulerDiffConfig cfg;
        cfg.seed = seed;
        cfg.duration_s = 0.02;
        const auto err = proptest::diff_pifo_vs_gps(RankPolicy::kWfq, cfg);
        EXPECT_EQ(err, std::nullopt) << "seed " << seed << ": " << *err;
    }
}

TEST(PolicyGpsBound, Wf2qRankPolicyHoldsAcrossSeeds) {
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        proptest::SchedulerDiffConfig cfg;
        cfg.seed = seed;
        cfg.duration_s = 0.02;
        const auto err = proptest::diff_pifo_vs_gps(RankPolicy::kWf2q, cfg);
        EXPECT_EQ(err, std::nullopt) << "seed " << seed << ": " << *err;
    }
}

// ------------------------------------ corpus behaviour pins (sat. 3)

/// Replay a corpus artifact through `sched` with a RankInversionMeter
/// mirroring `policy`, using exactly the policy differ's op->packet
/// mapping; returns the meter.
ref::RankInversionMeter replay_with_meter(const OpSeq& ops,
                                          scheduler::Scheduler& sched,
                                          RankPolicy policy,
                                          std::vector<net::Packet>* served) {
    const RankConfig rc = proptest::policy_diff_rank_config();
    ref::RankInversionMeter meter(policy, rc);
    for (const std::uint32_t w : proptest::kPolicyDiffWeights) {
        sched.add_flow(w);
        meter.add_flow(w);
    }
    net::TimeNs now = 0;
    std::uint64_t next_id = 1;
    const auto serve = [&] {
        if (const auto pkt = sched.dequeue(now)) {
            meter.on_serve(*pkt, now);
            if (served) served->push_back(*pkt);
        }
    };
    for (const Op& op : ops) {
        now += 800;
        if (op.kind == OpKind::kInsert || op.kind == OpKind::kCombined) {
            const net::Packet pkt =
                proptest::policy_diff_packet(op, next_id++, now);
            meter.on_offer(pkt, now, sched.enqueue(pkt, now));
        }
        if (op.kind == OpKind::kPop || op.kind == OpKind::kCombined) serve();
    }
    while (sched.has_packets()) {
        now += 800;
        serve();
    }
    return meter;
}

OpSeq read_corpus(const char* name) {
    const OpSeq ops =
        proptest::read_ops_file(std::string(WFQS_CORPUS_DIR) + "/" + name);
    EXPECT_FALSE(ops.empty()) << name;
    return ops;
}

TEST(PolicyCorpus, SpPifoArtifactsProduceInversionsExactPifoDoesNot) {
    for (const char* name :
         {"policy-sp-pifo-boundary.ops", "policy-sp-pifo-pushdown.ops"}) {
        const OpSeq ops = read_corpus(name);

        sched_prog::SpPifoScheduler::Config sp;
        sp.policy = RankPolicy::kWfq;
        sp.rank = proptest::policy_diff_rank_config();
        sp.num_queues = 2;
        sched_prog::SpPifoScheduler approx(sp);
        const auto approx_meter =
            replay_with_meter(ops, approx, RankPolicy::kWfq, nullptr);
        EXPECT_GT(approx_meter.inversions(), 0u)
            << name << " no longer provokes SP-PIFO inversions";
        if (std::string(name) == "policy-sp-pifo-pushdown.ops") {
            EXPECT_GT(approx.push_downs(), 0u)
                << name << " no longer triggers the push-down reaction";
        }

        sched_prog::PifoScheduler::Config pc;
        pc.policy = RankPolicy::kWfq;
        pc.rank = proptest::policy_diff_rank_config();
        sched_prog::PifoScheduler exact(pc, heap_factory());
        const auto exact_meter =
            replay_with_meter(ops, exact, RankPolicy::kWfq, nullptr);
        EXPECT_EQ(exact_meter.inversions(), 0u)
            << name << " provoked inversions on the exact PIFO";
        EXPECT_EQ(exact_meter.serves(), approx_meter.serves());
    }
}

TEST(PolicyCorpus, SrptServesTheMouseBurstFirst) {
    const OpSeq ops = read_corpus("policy-srpt-starvation.ops");
    sched_prog::PifoScheduler::Config pc;
    pc.policy = RankPolicy::kSrpt;
    pc.rank = proptest::policy_diff_rank_config();
    sched_prog::PifoScheduler exact(pc, heap_factory());
    std::vector<net::Packet> served;
    const auto meter =
        replay_with_meter(ops, exact, RankPolicy::kSrpt, &served);
    EXPECT_EQ(meter.inversions(), 0u);
    // The artifact queues 12 elephant packets (flow 1) before a 3-packet
    // mouse burst (flow 2); exact SRPT serves the whole mouse burst
    // before any elephant packet.
    ASSERT_GE(served.size(), 3u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(served[static_cast<std::size_t>(i)].flow, 2u)
            << "serve " << i << " went to the elephant";
}

}  // namespace
}  // namespace wfqs
