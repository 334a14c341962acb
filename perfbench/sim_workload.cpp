// sim_wfq_10g: the full stack, net::SimDriver -> sched_prog::PifoScheduler
// (WFQ rank) -> baselines::make_tag_queue(MultibitTree, 20 bits, 4 banks),
// on each sorter backend, over pre-generated arrivals from 256 flows
// offered a little above a 10 Gb/s link. Block boundaries are stamped by
// the benchmark's replay TrafficSource every kStampEvery arrivals it hands
// to the driver.
#include <algorithm>
#include <compare>
#include <memory>
#include <optional>

#include "baselines/factory.hpp"
#include "common/rng.hpp"
#include "hw/simulation.hpp"
#include "net/sim_driver.hpp"
#include "net/traffic_gen.hpp"
#include "sched_prog/pifo_scheduler.hpp"
#include "sched_prog/rank.hpp"
#include "scheduler/packet_buffer.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wfqs;
using baselines::SorterBackend;

constexpr std::uint64_t kLinkBps = 10'000'000'000ULL;
constexpr std::uint64_t kStampEvery = 64;
constexpr unsigned kRangeBits = 20;
constexpr std::size_t kQueueCapacity = 65536;  ///< >= packets the 4 MiB buffer can hold

struct SimInput {
    std::vector<std::uint32_t> weights;
    std::vector<std::vector<net::Arrival>> arrivals;  ///< per flow, time-ordered
    std::uint64_t packets = 0;
};

/// 256 flows with weights 1..8: three in four are Poisson sources of
/// 64..1500 B packets, every fourth an on/off Pareto burst source (1 Gb/s
/// peaks; shape 2.5, so burst lengths have finite variance and the offered
/// mix, and with it the host cost per packet, varies little between seeds). Together they offer ~11 Gb/s, so a backlog builds and the
/// shared buffer tail-drops. Sources run past the horizon sized for
/// `target` packets; all flows are then cut at the time of the target-th
/// arrival, so every seed offers exactly `target` packets.
SimInput make_sim_input(std::uint64_t seed, std::uint64_t target) {
    constexpr int kFlows = 256;
    constexpr double kOffered = 11e9;
    constexpr double kPoissonShare = 0.7;
    constexpr double kPoissonBits = (64 + 1500) / 2.0 * 8;
    constexpr double kBurstBits = 1500 * 8;
    const double poisson_pps = kOffered * kPoissonShare / kPoissonBits / (kFlows * 3 / 4);
    const double burst_bps = kOffered * (1 - kPoissonShare) / (kFlows / 4);
    const double total_pps = kOffered * kPoissonShare / kPoissonBits +
                             kOffered * (1 - kPoissonShare) / kBurstBits;
    const auto end_ns =
        static_cast<net::TimeNs>(1.5 * static_cast<double>(target) / total_pps * 1e9);
    constexpr double kPeakBps = 1e9;
    constexpr double kMeanOnS = 0.5e-3;
    constexpr double kParetoShape = 2.5;
    const double mean_off_s = kMeanOnS * (kPeakBps / burst_bps - 1);

    SimInput in;
    Rng rng(seed);
    for (int f = 0; f < kFlows; ++f) {
        in.weights.push_back(1u << rng.next_below(4));
        const std::uint64_t flow_seed = splitmix64(seed ^ static_cast<std::uint64_t>(f));
        std::unique_ptr<net::TrafficSource> src;
        if (f % 4 == 3)
            src = std::make_unique<net::OnOffParetoSource>(
                static_cast<std::uint64_t>(kPeakBps), f % 8 == 7 ? 576 : 1500, kMeanOnS,
                mean_off_s, kParetoShape, end_ns, flow_seed);
        else
            src = std::make_unique<net::PoissonSource>(poisson_pps, 64, 1500, end_ns, flow_seed);
        auto& v = in.arrivals.emplace_back();
        while (const auto a = src->next()) v.push_back(*a);
    }
    struct Key {
        net::TimeNs time;
        std::size_t flow, index;
        auto operator<=>(const Key&) const = default;
    };
    std::vector<Key> keys;
    for (std::size_t f = 0; f < in.arrivals.size(); ++f)
        for (std::size_t i = 0; i < in.arrivals[f].size(); ++i)
            keys.push_back({in.arrivals[f][i].time_ns, f, i});
    if (keys.size() > target) {
        std::nth_element(keys.begin(), keys.begin() + static_cast<std::ptrdiff_t>(target - 1),
                         keys.end());
        const Key cut = keys[target - 1];
        for (std::size_t f = 0; f < in.arrivals.size(); ++f) {
            auto& v = in.arrivals[f];
            std::size_t keep = 0;
            while (keep < v.size() && Key{v[keep].time_ns, f, keep} <= cut) ++keep;
            v.resize(keep);
        }
    }
    for (const auto& v : in.arrivals) in.packets += v.size();
    return in;
}

/// Block stamps: host time and the queue's call count every kStampEvery
/// arrivals handed to the driver.
struct Stamps {
    std::uint64_t handed = 0;
    const baselines::TagQueue* queue = nullptr;
    std::vector<std::uint64_t> ns;
    std::vector<std::uint64_t> calls;

    void reset(std::size_t packets) {
        handed = 0;
        ns.clear();
        calls.clear();
        ns.reserve(packets / kStampEvery + 2);
        calls.reserve(packets / kStampEvery + 2);
    }
    void tick() {
        if (++handed % kStampEvery != 0) return;
        ns.push_back(now_ns());
        const auto& st = queue->stats();
        calls.push_back(st.inserts + st.pops);
    }
};

/// Replays one flow's pre-generated arrivals.
class ReplaySource final : public net::TrafficSource {
public:
    ReplaySource(const std::vector<net::Arrival>& arrivals, Stamps* stamps)
        : arrivals_(arrivals), stamps_(stamps) {}
    std::optional<net::Arrival> next() override {
        if (i_ == arrivals_.size()) return std::nullopt;
        if (stamps_) stamps_->tick();
        return arrivals_[i_++];
    }
    std::string name() const override { return "replay"; }

private:
    const std::vector<net::Arrival>& arrivals_;
    Stamps* stamps_;
    std::size_t i_ = 0;
};

enum SpanName : std::uint16_t {
    kRun,
    kEnqueue,
    kDequeue,
    kQueueInsert,
    kQueuePop,
    kQueuePeek,
};
const std::vector<std::string> kSpanNames = {"net.run",          "sched_prog.enqueue",
                                             "sched_prog.dequeue", "baselines.insert",
                                             "baselines.pop_min",  "baselines.peek_min"};

struct QueueOp {
    std::uint64_t tag = 0;
    std::uint32_t payload = 0;
    std::uint8_t kind = 0;  ///< 0 insert, 1 pop_min, 2 peek_min
};

/// TagQueue decorator handed out by the PifoScheduler's queue factory:
/// spans around each call, the op stream for the isolated replays, and
/// the largest modeled-clock advance of one call.
class ObservedQueue final : public baselines::TagQueue {
public:
    ObservedQueue(std::unique_ptr<TagQueue> inner, SpanLog* log, std::vector<QueueOp>* record)
        : inner_(std::move(inner)), log_(log), record_(record), sim_(inner_->simulation()) {}

    void insert(std::uint64_t tag, std::uint32_t payload) override {
        const auto span = log_ ? log_->open(kQueueInsert, log_->current_pkt()) : -1;
        const std::uint64_t c0 = sim_ ? sim_->clock().now() : 0;
        inner_->insert(tag, payload);
        finish(span, c0);
        if (record_) record_->push_back({tag, payload, 0});
    }
    std::optional<baselines::QueueEntry> pop_min() override {
        const auto span = log_ ? log_->open(kQueuePop, log_->current_pkt()) : -1;
        const std::uint64_t c0 = sim_ ? sim_->clock().now() : 0;
        const auto e = inner_->pop_min();
        finish(span, c0);
        if (record_) record_->push_back({e ? e->tag : ~0ull, e ? e->payload : 0u, 1});
        return e;
    }
    std::optional<baselines::QueueEntry> peek_min() override {
        const auto span = log_ ? log_->open(kQueuePeek, log_->current_pkt()) : -1;
        const auto e = inner_->peek_min();
        if (log_) log_->close(span);
        if (record_) record_->push_back({e ? e->tag : ~0ull, e ? e->payload : 0u, 2});
        return e;
    }
    std::size_t size() const override { return inner_->size(); }
    std::string name() const override { return inner_->name(); }
    std::string model() const override { return inner_->model(); }
    std::string complexity() const override { return inner_->complexity(); }
    bool recover() override { return inner_->recover(); }
    hw::Simulation* simulation() override { return sim_; }

    std::uint64_t worst_cycles() const { return worst_cycles_; }

private:
    void finish(std::int32_t span, std::uint64_t c0) {
        if (log_) log_->close(span);
        if (sim_) worst_cycles_ = std::max(worst_cycles_, sim_->clock().now() - c0);
    }
    std::unique_ptr<TagQueue> inner_;
    SpanLog* log_;
    std::vector<QueueOp>* record_;
    hw::Simulation* sim_;
    std::uint64_t worst_cycles_ = 0;
};

/// Scheduler decorator: a span per enqueue/dequeue carrying the packet id.
class TracedScheduler final : public scheduler::Scheduler {
public:
    TracedScheduler(scheduler::Scheduler& inner, SpanLog& log) : inner_(inner), log_(log) {}
    net::FlowId add_flow(std::uint32_t weight) override { return inner_.add_flow(weight); }
    bool has_packets() const override { return inner_.has_packets(); }
    std::size_t queued_packets() const override { return inner_.queued_packets(); }
    std::string name() const override { return inner_.name(); }
    std::optional<std::uint32_t> peek_size(net::TimeNs now) override {
        return inner_.peek_size(now);
    }
    bool recover() override { return inner_.recover(); }

protected:
    bool do_enqueue(const net::Packet& packet, net::TimeNs now) override {
        const auto span = log_.open(kEnqueue, packet.id);
        const bool ok = inner_.enqueue(packet, now);
        log_.close(span);
        return ok;
    }
    std::optional<net::Packet> do_dequeue(net::TimeNs now) override {
        const auto span = log_.open(kDequeue);
        auto packet = inner_.dequeue(now);
        log_.close(span);
        if (packet) log_.set_pkt_from(span, packet->id);
        return packet;
    }

private:
    scheduler::Scheduler& inner_;
    SpanLog& log_;
};

baselines::QueueParams queue_params(SorterBackend backend, unsigned banks) {
    baselines::QueueParams p;
    p.range_bits = kRangeBits;
    p.capacity = kQueueCapacity;
    p.num_banks = banks;
    p.backend = backend;
    return p;
}

struct PassHooks {
    Stamps* stamps = nullptr;
    SpanLog* log = nullptr;
    std::vector<QueueOp>* record = nullptr;
    bool probe_cycles = false;
};

struct PassOut {
    net::SimResult result;
    std::uint64_t run_ns = 0;
    std::uint64_t calls = 0;        ///< queue inserts + pops
    std::uint64_t accesses = 0;     ///< QueueStats accesses_total
    std::uint64_t cycles = 0;       ///< modeled clock at the end (model backend)
    std::uint64_t worst_cycles = 0; ///< probe_cycles only
    hw::SramStats sram;
};

/// One SimDriver::run over the whole input on a freshly built stack.
PassOut run_pass(const SimInput& in, SorterBackend backend, const PassHooks& hooks) {
    baselines::TagQueue* queue = nullptr;
    ObservedQueue* observed = nullptr;
    sched_prog::PifoScheduler::Config cfg;
    cfg.policy = sched_prog::RankPolicy::kWfq;
    cfg.rank.link_rate_bps = kLinkBps;
    sched_prog::PifoScheduler sched(cfg, [&]() -> std::unique_ptr<baselines::TagQueue> {
        auto q = baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                           queue_params(backend, 4));
        queue = q.get();
        if (!hooks.log && !hooks.record && !hooks.probe_cycles) return q;
        auto o = std::make_unique<ObservedQueue>(std::move(q), hooks.log, hooks.record);
        observed = o.get();
        return o;
    });
    if (hooks.stamps) {
        hooks.stamps->reset(in.packets);
        hooks.stamps->queue = queue;
    }
    std::vector<net::FlowSpec> flows;
    for (std::size_t f = 0; f < in.arrivals.size(); ++f)
        flows.push_back({std::make_unique<ReplaySource>(in.arrivals[f], hooks.stamps),
                         in.weights[f]});
    std::optional<TracedScheduler> traced;
    scheduler::Scheduler* top = &sched;
    if (hooks.log) top = &traced.emplace(sched, *hooks.log);
    net::SimDriver driver(kLinkBps);

    PassOut out;
    const auto root = hooks.log ? hooks.log->open(kRun) : -1;
    const std::uint64_t t0 = now_ns();
    out.result = driver.run(*top, flows);
    out.run_ns = now_ns() - t0;
    if (hooks.log) hooks.log->close(root);
    out.calls = queue->stats().inserts + queue->stats().pops;
    out.accesses = queue->stats().accesses_total;
    if (const hw::Simulation* sim = queue->simulation()) {
        out.cycles = sim->clock().now();
        out.sram = sim->total_memory_stats();
    }
    if (observed) out.worst_cycles = observed->worst_cycles();
    return out;
}

struct Departure {
    std::uint64_t id;
    net::TimeNs at;
    friend bool operator==(const Departure&, const Departure&) = default;
};

std::vector<Departure> departures(const net::SimResult& r) {
    std::vector<Departure> d;
    d.reserve(r.records.size());
    for (const auto& rec : r.records) d.push_back({rec.packet.id, rec.departure_ns});
    return d;
}

/// Packet conservation plus departure-by-departure agreement with the
/// reference pass; every disagreeing packet is a failed op.
void check_pass(const net::SimResult& r, const SimInput& in, const std::vector<Departure>& want,
                Report& rep, const std::string& label) {
    rep.attempt(in.packets);
    if (r.offered_packets != in.packets)
        rep.fail(label + ": driver offered a different packet count",
                 r.offered_packets > in.packets ? r.offered_packets - in.packets
                                                : in.packets - r.offered_packets);
    if (r.records.size() + r.dropped_packets != r.offered_packets)
        rep.fail(label + ": delivered + dropped != offered", 1);
    std::uint64_t bad = r.records.size() > want.size() ? r.records.size() - want.size()
                                                        : want.size() - r.records.size();
    for (std::size_t i = 0; i < std::min(r.records.size(), want.size()); ++i)
        bad += !(Departure{r.records[i].packet.id, r.records[i].departure_ns} == want[i]);
    if (bad) rep.fail(label + ": departures differ from the reference pass", bad);
}

std::string fingerprint(const net::SimResult& r) {
    Fingerprint fp;
    for (const auto& rec : r.records) {
        fp.add(rec.packet.id);
        fp.add(rec.departure_ns);
    }
    fp.add(r.dropped_packets);
    return fp.hex();
}

/// Arrival/service events of a finished run, in the order the driver
/// made them: an arrival at or before a service decision goes first.
struct SimEvent {
    const net::Packet* packet;
    net::TimeNs now;
    bool arrival;
};

std::vector<SimEvent> sim_events(const net::SimResult& r) {
    std::vector<SimEvent> ev;
    ev.reserve(r.all_arrivals.size() + r.records.size());
    std::size_t a = 0;
    for (const auto& rec : r.records) {
        while (a < r.all_arrivals.size() && r.all_arrivals[a].arrival_ns <= rec.service_start_ns) {
            ev.push_back({&r.all_arrivals[a], r.all_arrivals[a].arrival_ns, true});
            ++a;
        }
        ev.push_back({&rec.packet, rec.service_start_ns, false});
    }
    for (; a < r.all_arrivals.size(); ++a)
        ev.push_back({&r.all_arrivals[a], r.all_arrivals[a].arrival_ns, true});
    return ev;
}

/// wfq.rank_ns and scheduler.buffer_ns: the recorded packet stream
/// replayed into the WFQ RankFunction and the SharedPacketBuffer.
void rank_and_buffer_rows(const SimInput& in, const net::SimResult& r, Report& rep) {
    const double overhead = clock_overhead_ns();
    const auto events = sim_events(r);
    std::vector<bool> delivered(r.all_arrivals.size(), false);
    for (const auto& rec : r.records) delivered[rec.packet.id] = true;

    sched_prog::RankConfig rc;
    rc.link_rate_bps = kLinkBps;
    const auto rank = sched_prog::make_rank_function(sched_prog::RankPolicy::kWfq, rc);
    for (const std::uint32_t w : in.weights) rank->add_flow(w);
    CallTimer t_rank(overhead);
    t_rank.reserve(events.size());
    volatile std::uint64_t sink = 0;
    for (const SimEvent& e : events) {
        if (e.arrival && !delivered[e.packet->id]) continue;  // buffer drops are never ranked
        const std::uint64_t t0 = now_ns();
        if (e.arrival)
            sink = sink + rank->on_arrival(*e.packet, e.now).rank;
        else
            rank->on_service(*e.packet, e.now);
        t_rank.add(t0, now_ns());
    }
    rep.set("wfq.rank_ns", t_rank.median_ns());

    scheduler::SharedPacketBuffer buffer;
    std::vector<scheduler::BufferRef> refs(r.all_arrivals.size(), 0);
    CallTimer t_store(overhead), t_retrieve(overhead);
    std::uint64_t drops = 0;
    for (const SimEvent& e : events) {
        const std::uint64_t t0 = now_ns();
        if (e.arrival) {
            const auto ref = buffer.store(*e.packet);
            t_store.add(t0, now_ns());
            if (ref)
                refs[e.packet->id] = *ref;
            else
                ++drops;
        } else {
            sink = sink + buffer.retrieve(refs[e.packet->id]).id;
            t_retrieve.add(t0, now_ns());
        }
    }
    if (drops != r.dropped_packets)
        rep.fail("isolated buffer replay dropped a different packet count",
                 drops > r.dropped_packets ? drops - r.dropped_packets : r.dropped_packets - drops);
    rep.set("scheduler.buffer_ns", t_store.median_ns() + t_retrieve.median_ns());
}

/// core.sharded.*: the recorded queue-op stream through fresh queues at 4
/// and 1 banks on both backends; pops must match the recorded ones.
void sharded_rows(const std::vector<QueueOp>& ops, double budget_s, Report& rep) {
    const struct {
        const char* name;
        SorterBackend backend;
        unsigned banks;
    } rows[] = {{"core.sharded.model.n4_ns_per_op", SorterBackend::kModel, 4},
                {"core.sharded.model.n1_ns_per_op", SorterBackend::kModel, 1},
                {"core.sharded.ffs.n4_ns_per_op", SorterBackend::kFfs, 4},
                {"core.sharded.ffs.n1_ns_per_op", SorterBackend::kFfs, 1}};
    for (const auto& row : rows) {
        std::vector<double> per_op;
        const std::uint64_t start = now_ns();
        while (per_op.size() < 2 ||
               (static_cast<double>(now_ns() - start) < budget_s * 1e9 / 4 && per_op.size() < 100)) {
            auto q = baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                               queue_params(row.backend, row.banks));
            std::uint64_t bad = 0;
            rep.attempt(ops.size());
            try {
                const std::uint64_t t0 = now_ns();
                for (const QueueOp& op : ops) {
                    if (op.kind == 0) {
                        q->insert(op.tag, op.payload);
                    } else {
                        const auto e = op.kind == 1 ? q->pop_min() : q->peek_min();
                        bad += !e || e->tag != op.tag || e->payload != op.payload;
                    }
                }
                per_op.push_back(static_cast<double>(now_ns() - t0) /
                                 static_cast<double>(ops.size()));
            } catch (const std::exception& e) {
                rep.fail(std::string(row.name) + " replay threw: " + e.what(), ops.size());
                break;
            }
            if (bad) rep.fail(std::string(row.name) + " replay pops differ", bad);
        }
        rep.set(row.name, median(per_op));
    }
}

}  // namespace

void run_sim_wfq_10g(const Options& opt, Report& rep) {
    const std::uint64_t target = opt.smoke ? 4000 : 100'000;
    SimInput in;
    std::vector<Departure> want;
    std::string fp_model, fp_ffs;
    PassOut model_check;
    std::vector<QueueOp> recorded;
    // Set-up: input generation, one warm-up pass per backend on a fresh
    // stack (the check passes: modeled metrics, reference departures).
    const auto setup_once = [&] {
        const std::uint64_t t0 = now_ns();
        in = make_sim_input(opt.seed, target);
        recorded.clear();
        PassHooks hooks;
        hooks.probe_cycles = true;
        hooks.record = opt.trace ? &recorded : nullptr;
        model_check = run_pass(in, SorterBackend::kModel, hooks);
        want = departures(model_check.result);
        check_pass(model_check.result, in, want, rep, "sim model warm-up");
        fp_model = fingerprint(model_check.result);
        const PassOut ffs_check = run_pass(in, SorterBackend::kFfs, {});
        check_pass(ffs_check.result, in, want, rep, "sim ffs warm-up");
        fp_ffs = fingerprint(ffs_check.result);
        return static_cast<double>(now_ns() - t0) * 1e-9;
    };
    const double setup_s = median_setup_s(opt.trace ? 1 : 5, setup_once);
    if (fp_model != fp_ffs) rep.fail("sim departure fingerprints differ between backends");
    const auto& r = model_check.result;
    const double cpo =
        static_cast<double>(model_check.cycles) / static_cast<double>(model_check.calls);
    rep.digest("sim_wfq_10g packets=" + std::to_string(in.packets) +
               " delivered=" + std::to_string(r.records.size()) +
               " dropped=" + std::to_string(r.dropped_packets) +
               " queue_calls=" + std::to_string(model_check.calls) + " model=" + fp_model +
               " ffs=" + fp_ffs);
    rep.digest("sim_wfq_10g model.cycles_per_op=" + fmt(cpo) +
               " model.worst_op_cycles=" + std::to_string(model_check.worst_cycles) +
               " hw.cycles=" + std::to_string(model_check.cycles));
    rep.set("model.cycles_per_op", cpo);
    rep.set("model.worst_op_cycles", static_cast<double>(model_check.worst_cycles));

    BlockSeries m_pkt, m_op, f_pkt, f_op;
    std::vector<double> ffs_run_ns_per_pkt;
    Stamps stamps;
    const auto timed = [&](SorterBackend backend, BlockSeries& pkt, BlockSeries& op) {
        PassHooks hooks;
        hooks.stamps = &stamps;
        const PassOut out = run_pass(in, backend, hooks);
        check_pass(out.result, in, want, rep,
                   std::string("sim ") + baselines::backend_name(backend));
        for (std::size_t i = 1; i < stamps.ns.size(); ++i) {
            const std::uint64_t dt = stamps.ns[i] - stamps.ns[i - 1];
            pkt.add(dt, static_cast<double>(kStampEvery));
            op.add(dt, static_cast<double>(stamps.calls[i] - stamps.calls[i - 1]));
        }
        if (backend == SorterBackend::kFfs)
            ffs_run_ns_per_pkt.push_back(static_cast<double>(out.run_ns) /
                                         static_cast<double>(in.packets));
        return static_cast<double>(out.run_ns) * 1e-9;
    };
    const auto measure = [&](double budget_s) {
        Slicer slicer(kSliceSeconds, kSliceGapSeconds, {&m_pkt, &m_op, &f_pkt, &f_op});
        const auto passes = alternate(
            budget_s, slicer, [&] { return timed(SorterBackend::kModel, m_pkt, m_op); },
            [&] { return timed(SorterBackend::kFfs, f_pkt, f_op); });
        rep.note(blocks_note("sim_wfq_10g", kStampEvery, "arrivals", m_pkt, f_pkt, passes));
    };

    if (!opt.trace) {
        measure(opt.seconds);
        rep.set("setup_s", setup_s);
        rep.set("model.ns_per_pkt.p50", m_pkt.p50());
        rep.set("model.ns_per_pkt.p99", m_pkt.p99());
        rep.set("ffs.ns_per_pkt.p50", f_pkt.p50());
        rep.set("ffs.ns_per_pkt.p99", f_pkt.p99());
        rep.set("model.ns_per_op.p50", m_op.p50());
        rep.set("model.ns_per_op.p99", m_op.p99());
        rep.set("ffs.ns_per_op.p50", f_op.p50());
        rep.set("ffs.ns_per_op.p99", f_op.p99());
        rep.set("peak_rss_mb", peak_rss_mb());
        return;
    }

    // Traced run: untraced measurement, one traced pass per backend (the
    // per-layer figures come from the ffs pass, where the layers above
    // the sorter carry the largest share), then the isolated rows.
    measure(opt.seconds * 0.3);
    SpanLog model_log(kSpanNames), ffs_log(kSpanNames);
    model_log.reserve(4 * in.packets + 16);
    ffs_log.reserve(4 * in.packets + 16);
    std::uint64_t model_wall = 0, ffs_wall = 0;
    {
        PassHooks hooks;
        hooks.log = &model_log;
        std::uint64_t t0 = now_ns();
        const PassOut m = run_pass(in, SorterBackend::kModel, hooks);
        model_wall = now_ns() - t0;
        check_pass(m.result, in, want, rep, "sim model traced");
        hooks.log = &ffs_log;
        t0 = now_ns();
        const PassOut f = run_pass(in, SorterBackend::kFfs, hooks);
        ffs_wall = now_ns() - t0;
        check_pass(f.result, in, want, rep, "sim ffs traced");
    }
    const double pkts = static_cast<double>(in.packets);
    const auto self = ffs_log.self_by_name();
    rep.set("net.self_ns_per_pkt", static_cast<double>(self[kRun]) / pkts);
    rep.set("net.drop_ratio", static_cast<double>(r.dropped_packets) / pkts);
    rep.set("sched_prog.enqueue_ns.p50", ffs_log.median_duration(kEnqueue));
    rep.set("sched_prog.dequeue_ns.p50", ffs_log.median_duration(kDequeue));
    rep.set("sched_prog.self_ns_per_pkt",
            static_cast<double>(self[kEnqueue] + self[kDequeue]) / pkts);
    rep.set("sched_prog.queue_calls_per_pkt",
            static_cast<double>(ffs_log.count(kQueueInsert) + ffs_log.count(kQueuePop) +
                                ffs_log.count(kQueuePeek)) /
                pkts);
    rep.set("baselines.insert_ns.p50", ffs_log.median_duration(kQueueInsert));
    rep.set("baselines.pop_ns.p50", ffs_log.median_duration(kQueuePop));
    const double calls = static_cast<double>(model_check.calls);
    rep.set("baselines.accesses_per_op", static_cast<double>(model_check.accesses) / calls);
    rep.set("hw.sram.reads_per_op", static_cast<double>(model_check.sram.reads) / calls);
    rep.set("hw.sram.writes_per_op", static_cast<double>(model_check.sram.writes) / calls);
    rep.digest("sim_wfq_10g counts accesses_per_op=" +
               fmt(static_cast<double>(model_check.accesses) / calls) +
               " sram_reads=" + std::to_string(model_check.sram.reads) +
               " sram_writes=" + std::to_string(model_check.sram.writes));
    const double untraced = median(ffs_run_ns_per_pkt);
    rep.set("trace.overhead_ratio",
            untraced > 0 ? static_cast<double>(ffs_log.root_total()) / pkts / untraced : 0.0);
    rep.set("trace.closure_error",
            std::max(closure_error(model_log, model_wall), closure_error(ffs_log, ffs_wall)));
    model_log.write(opt.trace_dir, opt.workload + ".tsv", "model");
    ffs_log.write(opt.trace_dir, opt.workload + ".tsv", "ffs");

    rank_and_buffer_rows(in, r, rep);
    sharded_rows(recorded, opt.seconds * 0.4, rep);
}

}  // namespace perfbench
