// sorter_paper12 and sorter_wide32_1m: op streams driven straight into
// core::TagSorter (the cycle model) and core::FfsSorter (host native),
// timed in blocks of consecutive sorter calls, checked against a
// ref::RefSorter replay, and (traced run) decomposed into isolated rows
// for the tree, matcher, translation table, linked store, SRAM and
// histogram layers.
#include <algorithm>
#include <memory>
#include <optional>
#include <unordered_map>

#include "baselines/factory.hpp"
#include "baselines/veb_queue.hpp"
#include "common/rng.hpp"
#include "core/ffs_sorter.hpp"
#include "core/tag_sorter.hpp"
#include "fault/ecc.hpp"
#include "hw/simulation.hpp"
#include "matcher/matcher.hpp"
#include "obs/metrics.hpp"
#include "ref/ref_sorter.hpp"
#include "storage/linked_tag_store.hpp"
#include "storage/translation_table.hpp"
#include "tree/multibit_tree.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace wfqs;
using core::SortedTag;

constexpr std::size_t kBlockOps = 256;
constexpr SortedTag kMissing{~std::uint64_t{0}, 0};

enum class OpKind : std::uint8_t { kInsert, kPop, kCombined };

struct Op {
    std::uint64_t tag = 0;
    std::uint32_t payload = 0;
    OpKind kind = OpKind::kInsert;
};

/// The simulation is declared first so it outlives the circuit in it.
struct ModelSorter {
    explicit ModelSorter(const core::TagSorter::Config& cfg) : sorter(cfg, sim) {}
    hw::Simulation sim;
    core::TagSorter sorter;
};

template <class S>
inline bool apply(S& s, const Op& op, SortedTag* out) {
    switch (op.kind) {
        case OpKind::kInsert:
            s.insert(op.tag, op.payload);
            return false;
        case OpKind::kPop: {
            const auto e = s.pop_min();
            *out = e ? *e : kMissing;
            return true;
        }
        case OpKind::kCombined:
            *out = s.insert_and_pop(op.tag, op.payload);
            return true;
    }
    return false;
}

/// Modeled cycles of the model backend: clock per sorter op, and the
/// slowest single op.
void report_cycles(const ModelSorter& m, std::uint64_t ops, Report& rep,
                   const std::string& label) {
    const auto& st = m.sorter.stats();
    const double cpo = static_cast<double>(m.sim.clock().now()) / static_cast<double>(ops);
    const auto worst = std::max(st.worst_insert_cycles, st.worst_pop_cycles);
    rep.set("model.cycles_per_op", cpo);
    rep.set("model.worst_op_cycles", static_cast<double>(worst));
    rep.digest(label + " model.cycles_per_op=" + fmt(cpo) +
               " model.worst_op_cycles=" + std::to_string(worst) +
               " hw.cycles=" + std::to_string(m.sim.clock().now()));
}

/// The model backend's layer tallies, as doubles so two snapshots
/// subtract into the tallies of one phase.
struct LayerCounts {
    double ops = 0, ins = 0, duplicates = 0, wrap_fallbacks = 0, sector_invalidations = 0,
           undercuts = 0, retirements = 0, searches = 0, node_lookups = 0, backups = 0,
           lookups = 0, hot_hits = 0, bulk_misses = 0, store_inserts = 0, store_pops = 0,
           reads = 0, writes = 0;

    static LayerCounts of(const ModelSorter& m) {
        const auto& st = m.sorter.stats();
        const auto& tree = m.sorter.search_tree().stats();
        const auto& table = m.sorter.table().stats();
        const auto& store = m.sorter.store().stats();
        const auto sram = m.sim.total_memory_stats();
        const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
        LayerCounts c;
        c.ops = d(st.inserts + st.pops + st.combined_ops);
        c.ins = d(st.inserts + st.combined_ops);
        c.duplicates = d(st.duplicate_inserts);
        c.wrap_fallbacks = d(st.wrap_fallback_searches);
        c.sector_invalidations = d(st.sector_invalidations);
        c.undercuts = d(st.head_undercuts);
        c.retirements = d(st.marker_retirements);
        c.searches = d(tree.searches);
        c.node_lookups = d(tree.node_lookups);
        c.backups = d(tree.backup_descents);
        c.lookups = d(table.lookups);
        c.hot_hits = d(table.hot_hits);
        c.bulk_misses = d(table.bulk_misses);
        c.store_inserts = d(store.inserts + store.combined_ops);
        c.store_pops = d(store.pops + store.combined_ops);
        c.reads = d(sram.reads);
        c.writes = d(sram.writes);
        return c;
    }

    LayerCounts minus(const LayerCounts& b) const {
        LayerCounts c = *this;
        for (auto f : {&LayerCounts::ops, &LayerCounts::ins, &LayerCounts::duplicates,
                       &LayerCounts::wrap_fallbacks, &LayerCounts::sector_invalidations,
                       &LayerCounts::undercuts, &LayerCounts::retirements,
                       &LayerCounts::searches, &LayerCounts::node_lookups,
                       &LayerCounts::backups, &LayerCounts::lookups, &LayerCounts::hot_hits,
                       &LayerCounts::bulk_misses, &LayerCounts::store_inserts,
                       &LayerCounts::store_pops, &LayerCounts::reads, &LayerCounts::writes})
            c.*f -= b.*f;
        return c;
    }
};

/// Exact counts of the model backend's layers (the per-layer "count" rows).
void report_counts(const LayerCounts& c, double insert_p99, double pop_p99, Report& rep,
                   const std::string& label) {
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const std::vector<std::pair<std::string, double>> counts = {
        {"core.duplicate_ratio", ratio(c.duplicates, c.ins)},
        {"core.wrap_fallback_per_insert", ratio(c.wrap_fallbacks, c.ins)},
        {"core.sector_invalidations", c.sector_invalidations},
        {"core.head_undercut_ratio", ratio(c.undercuts, c.ins)},
        {"core.insert_cycles.p99", insert_p99},
        {"core.pop_cycles.p99", pop_p99},
        {"tree.node_lookups_per_op", ratio(c.node_lookups, c.ops)},
        {"tree.backup_descent_ratio", ratio(c.backups, c.searches)},
        {"storage.table.hot_hit_rate", ratio(c.hot_hits, c.lookups)},
        {"storage.table.bulk_misses_per_op", ratio(c.bulk_misses, c.ops)},
        {"hw.sram.reads_per_op", ratio(c.reads, c.ops)},
        {"hw.sram.writes_per_op", ratio(c.writes, c.ops)},
    };
    std::string line = label + " counts";
    for (const auto& [name, v] : counts) {
        rep.set(name, v);
        line += " " + name + "=" + fmt(v);
    }
    rep.digest(line);
}

// ---------------------------------------------------------------------------
// Isolated layer rows: the workload's recorded sorter-level inputs replayed
// into one layer's public functions.

/// Logical tags entering and leaving the sorter, in order. Events before
/// `measure_from` only rebuild the resident state (prefill) and are not
/// timed.
struct EventLog {
    struct Event {
        std::uint64_t tag;
        bool insert;
    };
    std::vector<Event> events;
    std::size_t measure_from = 0;
    std::vector<std::uint64_t> op_cycles;  ///< modeled cycles per sorter op
};

/// Replay `log` into one tree, translation table and linked store built
/// with the sorter's own sub-configurations (per-call brackets), then time
/// the matcher, SRAM and histogram rows in batches over inputs recorded
/// along the way. Returns the isolated ns of each row by metric name.
std::map<std::string, double> replay_layers(const core::TagSorter::Config& cfg,
                                            const EventLog& log, double budget_s) {
    const double overhead = clock_overhead_ns();
    const tree::TreeGeometry& g = cfg.geometry;
    const unsigned levels = g.levels;
    const unsigned addr_bits = static_cast<unsigned>(
        64 - std::countl_zero(static_cast<std::uint64_t>(cfg.capacity)));
    hw::Simulation sim;
    matcher::BehavioralMatcher node_matcher;
    tree::MultibitTree tree({g, std::min(2u, levels)}, sim, node_matcher);
    storage::TranslationTable table({g.tag_bits(), addr_bits, cfg.tiered_table,
                                     cfg.table_hot_bits, cfg.table_miss_penalty_cycles},
                                    sim);
    storage::LinkedTagStore store({cfg.capacity, g.tag_bits(), cfg.payload_bits}, sim);
    const std::uint64_t mask = g.capacity() - 1;

    struct MatchInput {
        std::uint64_t word;
        unsigned target;
        unsigned width;
    };
    constexpr std::size_t kMaxRecorded = std::size_t{1} << 20;
    std::vector<MatchInput> matches;
    std::vector<std::uint64_t> leaf_addrs;
    std::unordered_map<std::uint64_t, std::uint32_t> multiplicity;
    CallTimer t_search(overhead), t_erase(overhead), t_contains(overhead),
        t_lookup(overhead), t_set(overhead), t_ins(overhead), t_pop(overhead);
    storage::Addr tail = storage::kNullAddr;
    std::uint64_t t0 = 0, t1 = 0;
    for (std::size_t i = 0; i < log.events.size(); ++i) {
        const bool timed = i >= log.measure_from;
        const std::uint64_t v = log.events[i].tag & mask;
        sim.clock().advance();
        if (log.events[i].insert) {
            if (timed && matches.size() < kMaxRecorded) {
                for (unsigned l = 0; l < levels; ++l)
                    matches.push_back({tree.node_word(l, g.node_index(v, l)), g.literal(v, l),
                                       g.branching(l)});
                leaf_addrs.push_back(g.node_index(v, levels - 1));
            }
            t0 = now_ns();
            static_cast<void>(tree.contains(v));
            t1 = now_ns();
            if (timed) t_contains.add(t0, t1);
            t0 = now_ns();
            tree.search_and_insert(v);
            t1 = now_ns();
            if (timed) t_search.add(t0, t1);
            sim.clock().advance();
            t0 = now_ns();
            table.lookup(v);
            t1 = now_ns();
            if (timed) t_lookup.add(t0, t1);
            sim.clock().advance();
            const storage::TagEntry entry{v, static_cast<std::uint32_t>(i) & 0xFFFFFu};
            t0 = now_ns();
            const storage::Addr a =
                store.empty() ? store.insert_at_head(entry) : store.insert_after(tail, entry);
            t1 = now_ns();
            if (timed) t_ins.add(t0, t1);
            tail = a;
            sim.clock().advance();
            t0 = now_ns();
            table.set(v, a);
            t1 = now_ns();
            if (timed) t_set.add(t0, t1);
            ++multiplicity[v];
        } else {
            t0 = now_ns();
            store.pop_head();
            t1 = now_ns();
            if (timed) t_pop.add(t0, t1);
            auto it = multiplicity.find(v);
            if (it != multiplicity.end() && --it->second == 0) {
                multiplicity.erase(it);
                sim.clock().advance();
                t0 = now_ns();
                tree.erase(v);
                t1 = now_ns();
                if (timed) t_erase.add(t0, t1);
                sim.clock().advance();
                table.invalidate(v);
            }
        }
    }

    std::map<std::string, double> rows = {
        {"tree.search_and_insert_ns", t_search.median_ns()},
        {"tree.erase_ns", t_erase.median_ns()},
        {"tree.contains_ns", t_contains.median_ns()},
        {"storage.table.lookup_ns", t_lookup.median_ns()},
        {"storage.table.set_ns", t_set.median_ns()},
        {"storage.store.insert_after_ns", t_ins.median_ns()},
        {"storage.store.pop_head_ns", t_pop.median_ns()},
    };

    // Batch rows: too cheap for a per-call bracket, so each repeat times a
    // whole sweep over the recorded inputs; the row is the median repeat.
    volatile std::uint64_t sink = 0;
    const double row_budget_ns = budget_s * 1e9 / 5.0;
    const auto batch_row = [&](std::size_t n, auto&& sweep) {
        std::vector<double> per_call;
        const std::uint64_t start = now_ns();
        while (per_call.size() < 3 ||
               (static_cast<double>(now_ns() - start) < row_budget_ns && per_call.size() < 1000)) {
            const std::uint64_t a = now_ns();
            sweep();
            const std::uint64_t b = now_ns();
            per_call.push_back(static_cast<double>(b - a) / static_cast<double>(std::max<std::size_t>(n, 1)));
        }
        return median(per_call);
    };

    matcher::MatcherEngine& engine = node_matcher;
    rows["matcher.match_ns"] = batch_row(matches.size(), [&] {
        std::uint64_t acc = 0;
        for (const MatchInput& m : matches)
            acc += static_cast<std::uint64_t>(engine.match(m.word, m.target, m.width).primary);
        sink = sink + acc;
    });

    // The leaf tree level's SRAM, as the sorter sizes it (paged when
    // large), with and without SECDED words.
    hw::Clock clock;
    const std::size_t leaf_words = static_cast<std::size_t>(g.nodes_at_level(levels - 1));
    hw::Sram plain("leaf", leaf_words, g.branching(levels - 1), clock);
    hw::Sram secded("leaf-secded", leaf_words, g.branching(levels - 1), clock);
    secded.enable_protection(fault::Protection::kSecded);
    rows["hw.sram.write_ns"] = batch_row(leaf_addrs.size(), [&] {
        std::uint64_t k = 0;
        for (const std::uint64_t a : leaf_addrs) {
            clock.advance();
            plain.write(static_cast<std::size_t>(a), ++k);
        }
    });
    for (const std::uint64_t a : leaf_addrs) {
        clock.advance();
        secded.write(static_cast<std::size_t>(a), a);
    }
    rows["hw.sram.read_ns"] = batch_row(leaf_addrs.size(), [&] {
        std::uint64_t acc = 0;
        for (const std::uint64_t a : leaf_addrs) {
            clock.advance();
            acc ^= plain.read(static_cast<std::size_t>(a));
        }
        sink = sink + acc;
    });
    rows["hw.sram.read_secded_ns"] = batch_row(leaf_addrs.size(), [&] {
        std::uint64_t acc = 0;
        for (const std::uint64_t a : leaf_addrs) {
            clock.advance();
            acc ^= secded.read(static_cast<std::size_t>(a));
        }
        sink = sink + acc;
    });

    const auto bins = core::TagSorter::hist_bins(cfg);
    rows["obs.hist.record_ns"] = batch_row(log.op_cycles.size(), [&] {
        obs::CycleHistogram h(0.0, static_cast<double>(bins), bins);
        for (const std::uint64_t c : log.op_cycles) h.record_cycles(c);
        sink = sink + h.stats().count();
    });
    return rows;
}

/// Direct model ns/op minus each isolated row times its calls per op
/// (matcher and SRAM rows run inside the tree/table/store rows and are
/// not added again). Table sets are one per stored tag.
double unattributed_ns(const LayerCounts& c, double direct_ns_per_op,
                       const std::map<std::string, double>& rows) {
    const double per = c.ops > 0 ? 1.0 / c.ops : 0.0;
    const double attributed = rows.at("tree.contains_ns") * c.ins * per +
                              rows.at("tree.search_and_insert_ns") * c.searches * per +
                              rows.at("tree.erase_ns") * c.retirements * per +
                              rows.at("storage.table.lookup_ns") * c.lookups * per +
                              rows.at("storage.table.set_ns") * c.ins * per +
                              rows.at("storage.store.insert_after_ns") * c.store_inserts * per +
                              rows.at("storage.store.pop_head_ns") * c.store_pops * per +
                              rows.at("obs.hist.record_ns");
    return direct_ns_per_op - attributed;
}

std::size_t count_mismatches(const SortedTag* got, std::size_t n_got,
                             const std::vector<SortedTag>& want) {
    std::size_t bad = n_got > want.size() ? n_got - want.size() : want.size() - n_got;
    for (std::size_t i = 0; i < std::min(n_got, want.size()); ++i) bad += !(got[i] == want[i]);
    return bad;
}

std::string fingerprint(const SortedTag* v, std::size_t n) {
    Fingerprint fp;
    for (std::size_t i = 0; i < n; ++i) {
        fp.add(v[i].tag);
        fp.add(v[i].payload);
    }
    return fp.hex();
}

// ---------------------------------------------------------------------------
// sorter_paper12

core::TagSorter::Config paper12_config() { return {tree::TreeGeometry::paper(), 4096, 24}; }

/// Universe of the vEB yardstick: the baselines rows replay the stream's
/// prefix whose tags fit it.
constexpr unsigned kVebBits = 16;

struct Paper12Stream {
    std::vector<Op> ops;
    std::vector<SortedTag> expected;  ///< RefSorter pops, in order
    std::vector<double> block_pkts;   ///< packets per kBlockOps block
    std::size_t veb_ops = 0;          ///< ops before the first tag >= 2^kVebBits
    std::size_t veb_pops = 0;         ///< pops among them
};

/// Line-rate combined ops, insert bursts and pop drains holding 200..2000
/// resident tags, with duplicates, head undercuts and the wrap seam
/// crossed every few thousand ops. The RefSorter that validates each tag
/// also yields the expected pop sequence.
Paper12Stream make_paper12_stream(std::uint64_t seed, std::size_t n_ops) {
    const core::TagSorter::Config cfg = paper12_config();
    const std::uint64_t range = cfg.geometry.capacity();
    ref::RefSorter ref({cfg.capacity, range - range / cfg.geometry.branching(), false});
    Rng rng(seed);
    Paper12Stream st;
    st.ops.reserve(n_ops);
    std::uint64_t floor = 0;
    std::uint64_t recent = 0;
    const auto head = [&] { return ref.empty() ? floor : ref.peek_min()->tag; };
    const auto pick = [&](bool combined) {
        const std::uint64_t h = head();
        const std::uint64_t r = rng.next_below(100);
        std::uint64_t tag;
        const std::uint64_t seam = (h / range + 1) * range;  // next physical wrap
        if (r < 10)
            tag = recent;  // duplicate of a recent tag (or an undercut, once passed)
        else if (r < 14 && h > 16)
            tag = h - 1 - rng.next_below(16);  // head undercut
        else if ((r < 24 && seam - h < 1200) || (r < 60 && seam - h <= 16))
            tag = seam + rng.next_below(8);  // seam rider: wrapped search fallback
        else
            tag = h + rng.next_below(1200);
        if (!(combined ? ref.would_accept_combined(tag) : ref.would_accept(tag))) tag = h;
        recent = tag;
        return tag;
    };
    const auto push = [&](OpKind kind) {
        Op op{0, static_cast<std::uint32_t>(st.ops.size()) & 0xFFFFFFu, kind};
        if (kind == OpKind::kCombined && ref.empty()) op.kind = OpKind::kInsert;
        if (op.kind != OpKind::kPop) op.tag = pick(op.kind == OpKind::kCombined);
        switch (op.kind) {
            case OpKind::kInsert:
                ref.insert(op.tag, op.payload);
                break;
            case OpKind::kPop:
                st.expected.push_back(*ref.pop_min());
                break;
            case OpKind::kCombined:
                st.expected.push_back(ref.insert_and_pop(op.tag, op.payload));
                break;
        }
        if (!ref.empty()) floor = ref.peek_min()->tag;
        st.ops.push_back(op);
    };
    // Occupancy saws between 200 and 2000: bursts alternate with line-rate
    // runs until the top, drains with line-rate runs until the bottom.
    // Only segment lengths and tags are random, so every seed sees the
    // same mix of ops.
    bool filling = true;
    for (int i = 0; i < 200; ++i) push(OpKind::kInsert);
    while (st.ops.size() < n_ops) {
        const std::uint64_t line_rate = 64 + rng.next_below(192);
        for (std::uint64_t k = 0; k < line_rate && st.ops.size() < n_ops; ++k)
            push(OpKind::kCombined);
        const std::uint64_t n = 32 + rng.next_below(224);
        for (std::uint64_t k = 0; k < n && st.ops.size() < n_ops; ++k) {
            if (filling ? ref.size() >= 2000 : ref.size() <= 200) {
                filling = !filling;
                break;
            }
            push(filling ? OpKind::kInsert : OpKind::kPop);
        }
    }
    st.veb_ops = st.ops.size();
    for (std::size_t i = 0; i < st.ops.size(); ++i) {
        if (st.ops[i].kind != OpKind::kPop && st.ops[i].tag >> kVebBits) {
            st.veb_ops = i;
            break;
        }
        st.veb_pops += st.ops[i].kind != OpKind::kInsert;
    }
    for (std::size_t b = 0; b < st.ops.size(); b += kBlockOps) {
        double pkts = 0;
        for (std::size_t i = b; i < std::min(b + kBlockOps, st.ops.size()); ++i)
            pkts += st.ops[i].kind == OpKind::kCombined ? 1.0 : 0.5;
        st.block_pkts.push_back(pkts);
    }
    return st;
}

/// One untimed pass over the stream (warm-up and check).
template <class S>
std::size_t plain_pass(S& s, const Paper12Stream& st, SortedTag* out, std::size_t& done) {
    std::size_t n_out = 0;
    for (done = 0; done < st.ops.size(); ++done) n_out += apply(s, st.ops[done], out + n_out);
    return n_out;
}

/// One timed pass over the stream: a clock read per kBlockOps calls.
/// `done` tracks progress so a throwing op is charged to the right ops.
template <class S>
std::size_t timed_pass(S& s, const Paper12Stream& st, SortedTag* out, BlockSeries& ns_op,
                       BlockSeries& ns_pkt, std::size_t& done) {
    std::size_t n_out = 0;
    done = 0;
    for (std::size_t b = 0; done < st.ops.size(); ++b) {
        const std::size_t first = done;
        const std::size_t end = std::min(done + kBlockOps, st.ops.size());
        const std::uint64_t t0 = now_ns();
        for (; done < end; ++done) n_out += apply(s, st.ops[done], out + n_out);
        const std::uint64_t t1 = now_ns();
        ns_op.add(t1 - t0, static_cast<double>(end - first));
        ns_pkt.add(t1 - t0, st.block_pkts[b]);
    }
    return n_out;
}

/// Traced pass: a root span per block, a child span per sorter call.
template <class S>
std::size_t traced_pass(S& s, const Paper12Stream& st, SortedTag* out, SpanLog& log,
                        std::size_t& done) {
    std::size_t n_out = 0;
    done = 0;
    while (done < st.ops.size()) {
        const std::size_t end = std::min(done + kBlockOps, st.ops.size());
        const auto root = log.open(0);
        for (; done < end; ++done) {
            const auto span = log.open(1);
            n_out += apply(s, st.ops[done], out + n_out);
            log.close(span);
        }
        log.close(root);
    }
    return n_out;
}

/// Run one pass (`pass(out, done)` returns the pop count and tracks the
/// ops done), check its pops against the reference, and tally.
template <class Pass>
void checked_pass(const Paper12Stream& st, std::vector<SortedTag>& out, Report& rep,
                  const std::string& label, Pass&& pass) {
    std::size_t done = 0;
    std::size_t n_out = 0;
    rep.attempt(st.ops.size());
    try {
        n_out = pass(out.data(), done);
    } catch (const std::exception& e) {
        rep.fail(label + " threw: " + e.what(), st.ops.size() - done);
        return;
    }
    if (const std::size_t bad = count_mismatches(out.data(), n_out, st.expected))
        rep.fail(label + " pops differ from the RefSorter replay", bad);
}

/// The stream's vEB-sized prefix through a TagQueue (combined op =
/// pop_min then insert), ns per stream op; the first repeat's pops are
/// checked.
template <class MakeQueue>
double queue_row(MakeQueue&& make, const Paper12Stream& st, double budget_s, Report& rep,
                 const std::string& label, double* accesses_per_op = nullptr) {
    const std::size_t n = st.veb_ops;
    const std::vector<SortedTag> want(st.expected.begin(),
                                      st.expected.begin() + static_cast<std::ptrdiff_t>(st.veb_pops));
    std::vector<double> per_op;
    std::vector<SortedTag> out(want.size() + 1);
    const std::uint64_t start = now_ns();
    while (per_op.size() < 3 || (static_cast<double>(now_ns() - start) < budget_s * 1e9 &&
                                 per_op.size() < 1000)) {
        auto q = make();
        std::size_t n_out = 0;
        rep.attempt(n);
        try {
            const std::uint64_t t0 = now_ns();
            for (std::size_t i = 0; i < n; ++i) {
                const Op& op = st.ops[i];
                if (op.kind != OpKind::kInsert) {
                    const auto e = q->pop_min();
                    out[n_out++] = e ? SortedTag{e->tag, e->payload} : kMissing;
                }
                if (op.kind != OpKind::kPop) q->insert(op.tag, op.payload);
            }
            const std::uint64_t t1 = now_ns();
            per_op.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
        } catch (const std::exception& e) {
            rep.fail(label + " threw: " + e.what(), n);
            return 0.0;
        }
        if (per_op.size() == 1) {
            if (const std::size_t bad = count_mismatches(out.data(), n_out, want))
                rep.fail(label + " pops differ from the RefSorter replay", bad);
            if (accesses_per_op) *accesses_per_op = q->stats().avg_accesses_per_op();
        }
    }
    return median(per_op);
}

}  // namespace

void run_sorter_paper12(const Options& opt, Report& rep) {
    const std::size_t n_ops = opt.smoke ? 6000 : 64000;
    const core::TagSorter::Config cfg = paper12_config();
    Paper12Stream st;
    std::vector<SortedTag> out;
    // Set-up: input generation with its reference replay, construction of
    // both backends, and one warm-up pass each (which is also the check
    // pass that yields the modeled metrics and fingerprints).
    std::unique_ptr<ModelSorter> check_model;
    std::string fp_model, fp_ffs;
    const auto setup_once = [&] {
        const std::uint64_t t0 = now_ns();
        st = make_paper12_stream(opt.seed, n_ops);
        out.assign(st.expected.size() + 1, SortedTag{});
        check_model = std::make_unique<ModelSorter>(cfg);
        checked_pass(st, out, rep, "paper12 model warm-up", [&](SortedTag* o, std::size_t& d) {
            return plain_pass(check_model->sorter, st, o, d);
        });
        fp_model = fingerprint(out.data(), st.expected.size());
        core::FfsSorter ffs(cfg);
        checked_pass(st, out, rep, "paper12 ffs warm-up", [&](SortedTag* o, std::size_t& d) {
            return plain_pass(ffs, st, o, d);
        });
        fp_ffs = fingerprint(out.data(), st.expected.size());
        return static_cast<double>(now_ns() - t0) * 1e-9;
    };
    const double setup_s = median_setup_s(opt.trace ? 1 : 7, setup_once);
    const std::string fp_ref = fingerprint(st.expected.data(), st.expected.size());
    rep.digest("sorter_paper12 ops=" + std::to_string(st.ops.size()) +
               " pops=" + std::to_string(st.expected.size()) + " ref=" + fp_ref +
               " model=" + fp_model + " ffs=" + fp_ffs);
    if (fp_model != fp_ffs) rep.fail("paper12 model and ffs pop sequences differ");
    report_cycles(*check_model, st.ops.size(), rep, "sorter_paper12");

    BlockSeries m_op, m_pkt, f_op, f_pkt;
    // One timed pass on a fresh sorter; returns its measured seconds.
    const auto pass = [&](auto& sorter, BlockSeries& op, BlockSeries& pkt,
                          const std::string& label) {
        const std::uint64_t t0 = now_ns();
        checked_pass(st, out, rep, label, [&](SortedTag* o, std::size_t& d) {
            return timed_pass(sorter, st, o, op, pkt, d);
        });
        return static_cast<double>(now_ns() - t0) * 1e-9;
    };
    const auto measure = [&](double budget_s) {
        Slicer slicer(kSliceSeconds, kSliceGapSeconds, {&m_op, &m_pkt, &f_op, &f_pkt});
        const auto passes = alternate(
            budget_s, slicer,
            [&] {
                ModelSorter m(cfg);
                return pass(m.sorter, m_op, m_pkt, "paper12 model");
            },
            [&] {
                core::FfsSorter f(cfg);
                return pass(f, f_op, f_pkt, "paper12 ffs");
            });
        rep.note(blocks_note("sorter_paper12", kBlockOps, "ops", m_op, f_op, passes));
    };

    if (!opt.trace) {
        measure(opt.seconds);
        rep.set("setup_s", setup_s);
        rep.set("model.ns_per_op.p50", m_op.p50());
        rep.set("model.ns_per_op.p99", m_op.p99());
        rep.set("ffs.ns_per_op.p50", f_op.p50());
        rep.set("ffs.ns_per_op.p99", f_op.p99());
        rep.set("model.ns_per_pkt.p50", m_pkt.p50());
        rep.set("model.ns_per_pkt.p99", m_pkt.p99());
        rep.set("ffs.ns_per_pkt.p50", f_pkt.p50());
        rep.set("ffs.ns_per_pkt.p99", f_pkt.p99());
        rep.set("peak_rss_mb", peak_rss_mb());
        return;
    }

    // Traced run: an untraced measurement, a traced pass per backend, the
    // layer counts, then the isolated rows.
    measure(opt.seconds * 0.3);
    const LayerCounts counts = LayerCounts::of(*check_model);
    report_counts(counts, check_model->sorter.insert_cycles().approx_quantile(0.99),
                  check_model->sorter.pop_cycles().approx_quantile(0.99), rep,
                  "sorter_paper12");
    SpanLog model_log({"bench.block", "core.op"}), ffs_log({"bench.block", "core.op"});
    model_log.reserve(st.ops.size() + st.ops.size() / kBlockOps + 1);
    ffs_log.reserve(st.ops.size() + st.ops.size() / kBlockOps + 1);
    std::uint64_t model_wall = 0, ffs_wall = 0;
    {
        ModelSorter m(cfg);
        const std::uint64_t t0 = now_ns();
        checked_pass(st, out, rep, "paper12 model traced", [&](SortedTag* o, std::size_t& d) {
            return traced_pass(m.sorter, st, o, model_log, d);
        });
        model_wall = now_ns() - t0;
        core::FfsSorter f(cfg);
        const std::uint64_t t1 = now_ns();
        checked_pass(st, out, rep, "paper12 ffs traced", [&](SortedTag* o, std::size_t& d) {
            return traced_pass(f, st, o, ffs_log, d);
        });
        ffs_wall = now_ns() - t1;
    }
    const double ops = static_cast<double>(st.ops.size());
    const double ffs_untraced = f_op.mean();
    rep.set("trace.overhead_ratio",
            ffs_untraced > 0 ? static_cast<double>(ffs_log.root_total()) / ops / ffs_untraced
                             : 0.0);
    rep.set("trace.closure_error",
            std::max(closure_error(model_log, model_wall), closure_error(ffs_log, ffs_wall)));
    model_log.write(opt.trace_dir, opt.workload + ".tsv", "model");
    ffs_log.write(opt.trace_dir, opt.workload + ".tsv", "ffs");

    // Recorded inputs for the isolated rows: the stream's tag events and
    // the model's modeled cycles per op.
    EventLog log;
    {
        std::size_t k = 0;
        ModelSorter m(cfg);
        for (const Op& op : st.ops) {
            if (op.kind != OpKind::kInsert)
                log.events.push_back({st.expected[k++].tag, false});
            if (op.kind != OpKind::kPop) log.events.push_back({op.tag, true});
            const std::uint64_t c0 = m.sim.clock().now();
            SortedTag sink;
            apply(m.sorter, op, &sink);
            log.op_cycles.push_back(m.sim.clock().now() - c0);
        }
    }
    const double rows_budget = opt.seconds * 0.4;
    auto rows = replay_layers(cfg, log, rows_budget * 0.5);
    for (const auto& [name, v] : rows) rep.set(name, v);
    rep.set("core.unattributed_ns_per_op", unattributed_ns(counts, m_op.p50(), rows));

    const double q_budget = rows_budget * 0.5 / 3.0;
    double accesses = 0;
    baselines::QueueParams params;
    params.range_bits = 12;
    params.capacity = cfg.capacity;
    params.backend = baselines::SorterBackend::kModel;
    rep.set("baselines.model.ns_per_op",
            queue_row([&] { return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                                             params); },
                      st, q_budget, rep, "paper12 TagQueue model", &accesses));
    rep.set("baselines.accesses_per_op", accesses);
    params.backend = baselines::SorterBackend::kFfs;
    rep.set("baselines.ffs.ns_per_op",
            queue_row([&] { return baselines::make_tag_queue(baselines::QueueKind::MultibitTree,
                                                             params); },
                      st, q_budget, rep, "paper12 TagQueue ffs"));
    rep.set("baselines.veb.ns_per_op",
            queue_row([] { return std::make_unique<baselines::VebQueue>(kVebBits); }, st,
                      q_budget, rep, "paper12 VebQueue"));
}

// ---------------------------------------------------------------------------
// sorter_wide32_1m

namespace {

core::TagSorter::Config wide32_config() {
    core::TagSorter::Config cfg;
    cfg.geometry = tree::TreeGeometry::wide32();
    cfg.capacity = std::size_t{1} << 20;
    return cfg;
}

/// Counter-based wide32 input: prefill tags climb by 1..800 from 0; op i
/// alternates a tag at the climbing cursor with one scattered uniformly
/// between the current head and the cursor (the sorter's own head, which
/// every correct backend agrees on), as in geometry_sweep's tiered phase.
struct WideStream {
    std::uint64_t seed = 0;
    std::uint64_t cursor = 0;
    std::uint64_t next = 0;  ///< index of the next op

    std::uint64_t prefill_tag(std::uint64_t i) {
        cursor += 1 + splitmix64(seed ^ (i * 2 + 1)) % 800;
        return cursor;
    }
    template <class Head>
    std::uint64_t op_tag(Head&& head) {
        const std::uint64_t u = splitmix64(seed ^ (next * 2));
        std::uint64_t tag;
        if (next % 2 == 0) {
            cursor += 1 + u % 800;
            tag = cursor;
        } else {
            const std::uint64_t h = head();
            tag = h + 1 + u % (cursor - h);
        }
        ++next;
        return tag;
    }
    std::uint32_t payload() const { return static_cast<std::uint32_t>(next) & 0xFFFFFFu; }
};

/// Pops recorded as (tag << 24 | payload): tags stay far below 2^40.
inline std::uint64_t pack(const SortedTag& e) { return (e.tag << 24) | e.payload; }

template <class S>
void wide_prefill(S& s, WideStream& in, std::size_t resident) {
    constexpr std::size_t kBatch = 4096;
    std::vector<SortedTag> batch(kBatch);
    for (std::size_t done = 0; done < resident;) {
        const std::size_t n = std::min(kBatch, resident - done);
        for (std::size_t i = 0; i < n; ++i)
            batch[i] = {in.prefill_tag(done + i), static_cast<std::uint32_t>(done + i) & 0xFFFFFFu};
        s.insert_batch(batch.data(), n);
        done += n;
    }
}

/// Ops are ~0.5-3 us here, so blocks of 64 still dwarf a clock read and
/// give each backend enough windows (BlockSeries) per run.
constexpr std::size_t kWideBlockOps = 64;

/// `n` combined ops from `in`'s current position, a clock read per
/// kWideBlockOps; optionally one span per op and the modeled cycles per op.
template <class S>
void wide_ops(S& s, WideStream& in, std::size_t n, std::uint64_t* out, BlockSeries* ns_op,
              Slicer* slicer, SpanLog* log, std::vector<std::uint64_t>* cycles,
              const hw::Clock* clock) {
    const auto head = [&s] { return s.peek_min()->tag; };
    for (std::size_t i = 0; i < n;) {
        const std::size_t end = std::min(i + kWideBlockOps, n);
        const std::size_t first = i;
        const std::uint64_t t0 = now_ns();
        if (!log) {
            for (; i < end; ++i) {
                const std::uint32_t p = in.payload();
                const std::uint64_t tag = in.op_tag(head);
                out[i] = pack(s.insert_and_pop(tag, p));
            }
        } else {
            const auto root = log->open(0);
            for (; i < end; ++i) {
                const std::uint32_t p = in.payload();
                const std::uint64_t c0 = clock ? clock->now() : 0;
                const auto span = log->open(1);
                const std::uint64_t tag = in.op_tag(head);
                out[i] = pack(s.insert_and_pop(tag, p));
                log->close(span);
                if (cycles && clock) cycles->push_back(clock->now() - c0);
            }
            log->close(root);
        }
        const std::uint64_t t1 = now_ns();
        if (ns_op) ns_op->add(t1 - t0, static_cast<double>(end - first));
        if (slicer) slicer->tick();
    }
}

}  // namespace

void run_sorter_wide32(const Options& opt, Report& rep) {
    const std::size_t resident = opt.smoke ? 50'000 : 1'000'000;
    // Deterministic op counts (modeled metrics must repeat exactly),
    // scaled so a run measures about --seconds on a 4-core x86 host.
    const std::size_t n_ops = opt.smoke ? 20'000
                                        : static_cast<std::size_t>(opt.seconds * 400'000.0);
    const core::TagSorter::Config cfg = wide32_config();
    const std::uint64_t seed = splitmix64(opt.seed ^ 0x3232);

    std::unique_ptr<ModelSorter> model;
    std::unique_ptr<core::FfsSorter> ffs;
    WideStream model_in, ffs_in;
    const auto setup_once = [&] {
        model.reset();
        ffs.reset();
        const std::uint64_t t0 = now_ns();
        model = std::make_unique<ModelSorter>(cfg);
        model_in = WideStream{seed};
        wide_prefill(model->sorter, model_in, resident);
        ffs = std::make_unique<core::FfsSorter>(cfg);
        ffs_in = WideStream{seed};
        wide_prefill(*ffs, ffs_in, resident);
        return static_cast<double>(now_ns() - t0) * 1e-9;
    };
    const double setup_s = median_setup_s(opt.trace ? 1 : 3, setup_once);
    const std::uint64_t prefill_cycles = model->sim.clock().now();
    const LayerCounts prefill_counts = LayerCounts::of(*model);

    // Timed run: every op measured; traced run: the first quarter
    // untraced, the second traced, both on the same live state. Backends
    // alternate in chunks so both span the whole measurement; each
    // chunk's pops are fingerprinted between chunks (outside the blocks)
    // and checked against the reference replay chunk by chunk.
    const std::size_t n_plain = opt.trace ? n_ops / 4 : n_ops;
    const std::size_t n_traced = opt.trace ? n_ops / 4 : 0;
    const std::size_t total = n_plain + n_traced;
    constexpr std::size_t kChunk = 16384;
    std::vector<std::uint64_t> pops(kChunk);
    std::vector<std::uint64_t> model_fps, ffs_fps;
    const auto chunk_fp = [&](std::size_t n) {
        Fingerprint fp;
        for (std::size_t i = 0; i < n; ++i) fp.add(pops[i]);
        return fp.h;
    };
    BlockSeries m_op, f_op;
    SpanLog model_log({"bench.block", "core.op"}), ffs_log({"bench.block", "core.op"});
    std::uint64_t model_wall = 0, ffs_wall = 0;
    EventLog log;
    rep.attempt(2 * total);
    bool threw = false;
    try {
        Slicer slicer(kSliceSeconds, kSliceGapSeconds, {&m_op, &f_op});
        for (std::size_t done = 0; done < n_plain; done += kChunk) {
            const std::size_t n = std::min(kChunk, n_plain - done);
            wide_ops(model->sorter, model_in, n, pops.data(), &m_op, &slicer, nullptr, nullptr,
                     nullptr);
            model_fps.push_back(chunk_fp(n));
            wide_ops(*ffs, ffs_in, n, pops.data(), &f_op, &slicer, nullptr, nullptr, nullptr);
            ffs_fps.push_back(chunk_fp(n));
        }
        slicer.finish();
        if (n_traced > 0) {
            model_log.reserve(n_traced + n_traced / kWideBlockOps + 1);
            ffs_log.reserve(n_traced + n_traced / kWideBlockOps + 1);
            log.op_cycles.reserve(n_traced);
            for (std::size_t done = 0; done < n_traced; done += kChunk) {
                const std::size_t n = std::min(kChunk, n_traced - done);
                std::uint64_t t0 = now_ns();
                wide_ops(model->sorter, model_in, n, pops.data(), nullptr, nullptr, &model_log,
                         &log.op_cycles, &model->sim.clock());
                model_wall += now_ns() - t0;
                model_fps.push_back(chunk_fp(n));
                t0 = now_ns();
                wide_ops(*ffs, ffs_in, n, pops.data(), nullptr, nullptr, &ffs_log, nullptr,
                         nullptr);
                ffs_wall += now_ns() - t0;
                ffs_fps.push_back(chunk_fp(n));
            }
        }
    } catch (const std::exception& e) {
        rep.fail(std::string("wide32 op threw: ") + e.what(), 2 * total);
        threw = true;
    }
    rep.note(blocks_note("sorter_wide32_1m", kWideBlockOps, "ops", m_op, f_op));
    // Modeled metrics of the ops phase only (prefill is set-up): every op
    // is combined, so the combined-op histogram holds each op's cycles.
    const std::uint64_t model_ops = model->sorter.stats().combined_ops;
    const std::uint64_t ops_cycles = model->sim.clock().now() - prefill_cycles;
    const obs::CycleHistogram& op_hist = model->sorter.combined_cycles();
    const LayerCounts counts = LayerCounts::of(*model).minus(prefill_counts);
    if (!threw) {
        const double cpo = static_cast<double>(ops_cycles) / static_cast<double>(model_ops);
        const double worst = op_hist.stats().max();
        rep.set("model.cycles_per_op", cpo);
        rep.set("model.worst_op_cycles", worst);
        rep.digest("sorter_wide32_1m model.cycles_per_op=" + fmt(cpo) +
                   " model.worst_op_cycles=" + fmt(worst, 0) +
                   " hw.cycles=" + std::to_string(model->sim.clock().now()));
    }
    if (opt.trace) report_counts(counts, op_hist.approx_quantile(0.99), 0.0, rep, "sorter_wide32_1m");
    // Peak memory of the program under test, before the reference replay
    // adds its own.
    const double rss_mb = peak_rss_mb();
    model.reset();
    ffs.reset();

    // Reference replay on the same inputs (outside every timed region).
    {
        ref::RefSorter ref({cfg.capacity, 0, false});
        WideStream in{seed};
        for (std::size_t i = 0; i < resident; ++i) {
            const std::uint64_t tag = in.prefill_tag(i);
            ref.insert(tag, static_cast<std::uint32_t>(i) & 0xFFFFFFu);
            if (opt.trace) log.events.push_back({tag, true});
        }
        log.measure_from = log.events.size();
        constexpr std::size_t kLayerOps = 200'000;
        Fingerprint fp;
        std::uint64_t bad_model = 0, bad_ffs = 0;
        const auto head = [&ref] { return ref.peek_min()->tag; };
        std::size_t chunk = 0;
        for (std::size_t first = 0; first < total; first += kChunk, ++chunk) {
            // Plain and traced segments are chunked separately.
            const std::size_t seg_end = first < n_plain ? n_plain : total;
            const std::size_t n = std::min(kChunk, seg_end - first);
            for (std::size_t k = 0; k < n; ++k) {
                const std::size_t i = first + k;
                const std::uint32_t p = in.payload();
                const std::uint64_t tag = in.op_tag(head);
                pops[k] = pack(ref.insert_and_pop(tag, p));
                fp.add(pops[k]);
                if (opt.trace && i >= n_plain && i - n_plain < kLayerOps) {
                    log.events.push_back({pops[k] >> 24, false});
                    log.events.push_back({tag, true});
                }
            }
            const std::uint64_t want = chunk_fp(n);
            if (chunk >= model_fps.size() || model_fps[chunk] != want) bad_model += n;
            if (chunk >= ffs_fps.size() || ffs_fps[chunk] != want) bad_ffs += n;
            if (n < kChunk) first -= kChunk - n;  // next segment starts right after
        }
        if (!threw) {
            if (bad_model)
                rep.fail("wide32 model pops differ from the RefSorter replay (ops in "
                         "mismatching chunks)",
                         bad_model);
            if (bad_ffs)
                rep.fail("wide32 ffs pops differ from the RefSorter replay (ops in "
                         "mismatching chunks)",
                         bad_ffs);
        }
        rep.digest("sorter_wide32_1m resident=" + std::to_string(resident) +
                   " ops=" + std::to_string(total) + " ref=" + fp.hex());
    }

    if (!opt.trace) {
        rep.set("setup_s", setup_s);
        rep.set("model.ns_per_op.p50", m_op.p50());
        rep.set("model.ns_per_op.p99", m_op.p99());
        rep.set("ffs.ns_per_op.p50", f_op.p50());
        rep.set("ffs.ns_per_op.p99", f_op.p99());
        // Every op is combined: one packet stored and one served per op.
        rep.set("model.ns_per_pkt.p50", m_op.p50());
        rep.set("model.ns_per_pkt.p99", m_op.p99());
        rep.set("ffs.ns_per_pkt.p50", f_op.p50());
        rep.set("ffs.ns_per_pkt.p99", f_op.p99());
        rep.set("peak_rss_mb", rss_mb);
        return;
    }

    const double ffs_untraced = f_op.mean();
    rep.set("trace.overhead_ratio",
            ffs_untraced > 0 ? static_cast<double>(ffs_log.root_total()) /
                                   static_cast<double>(n_traced) / ffs_untraced
                             : 0.0);
    rep.set("trace.closure_error",
            std::max(closure_error(model_log, model_wall), closure_error(ffs_log, ffs_wall)));
    model_log.write(opt.trace_dir, opt.workload + ".tsv", "model");
    ffs_log.write(opt.trace_dir, opt.workload + ".tsv", "ffs");
    auto rows = replay_layers(cfg, log, opt.seconds * 0.2);
    for (const auto& [name, v] : rows) rep.set(name, v);
    rep.set("core.unattributed_ns_per_op", unattributed_ns(counts, m_op.p50(), rows));
}

}  // namespace perfbench
