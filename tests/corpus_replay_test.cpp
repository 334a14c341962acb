// Replays the committed corpus of minimized regressions
// (tests/corpus/*.ops) through every standard sorter configuration.
//
// Each corpus file is a shrunk counterexample that once exposed a bug
// class (or was authored to pin a known-delicate path: wrap-seam
// fallback, duplicate retirement, undercut heads, window-boundary
// rejections). Replaying them is fast — the whole corpus must clear the
// full configuration matrix in seconds, so it runs in tier-1 on every
// build.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>

#include "proptest/differ.hpp"
#include "proptest/proptest.hpp"

#ifndef WFQS_CORPUS_DIR
#error "WFQS_CORPUS_DIR must point at tests/corpus"
#endif

namespace wfqs::proptest {
namespace {

std::vector<std::filesystem::path> corpus_files() {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(WFQS_CORPUS_DIR))
        if (entry.path().extension() == ".ops") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(CorpusReplay, CorpusIsNonEmpty) {
    EXPECT_GE(corpus_files().size(), 5u)
        << "the committed regression corpus went missing";
}

TEST(CorpusReplay, EveryTagSorterConfig) {
    for (const auto& file : corpus_files()) {
        const OpSeq ops = read_ops_file(file.string());
        ASSERT_FALSE(ops.empty()) << file;
        for (const auto& entry : standard_tag_configs()) {
            const auto err = diff_tag_sorter(ops, entry.config);
            EXPECT_EQ(err, std::nullopt)
                << file.filename() << " on " << entry.name << ": " << *err;
        }
    }
}

TEST(CorpusReplay, EveryShardedConfig) {
    for (const auto& file : corpus_files()) {
        const OpSeq ops = read_ops_file(file.string());
        for (const auto& entry : standard_sharded_configs()) {
            const auto err = diff_sharded_row(ops, entry);
            EXPECT_EQ(err, std::nullopt)
                << file.filename() << " on " << entry.name << ": " << *err;
        }
    }
}

TEST(CorpusReplay, EveryBaselineQueueConfig) {
    for (const auto& file : corpus_files()) {
        const OpSeq ops = read_ops_file(file.string());
        for (const auto& entry : standard_baseline_configs()) {
            const auto err = diff_baseline_queue(ops, entry);
            EXPECT_EQ(err, std::nullopt)
                << file.filename() << " on " << entry.name << ": " << *err;
        }
    }
}

TEST(CorpusReplay, EveryPolicyConfig) {
    // The policy differ reads the same `.ops` stream as a packet
    // arrival/service schedule, so every corpus artifact — including the
    // policy-* pins authored for SP-PIFO/SRPT behaviour — replays
    // against every rank policy, both sorter backends, and the
    // approximation mirrors.
    for (const auto& file : corpus_files()) {
        const OpSeq ops = read_ops_file(file.string());
        for (const auto& entry : standard_policy_configs()) {
            const auto err = diff_policy_scheduler(ops, entry);
            EXPECT_EQ(err, std::nullopt)
                << file.filename() << " on " << entry.name << ": " << *err;
        }
    }
}

TEST(CorpusReplay, NetlistMatcherOnCorpus) {
    // One gate-level engine over the corpus keeps the netlist path pinned
    // without blowing the tier-1 budget.
    matcher::NetlistMatcher engine(matcher::MatcherKind::SelectLookahead);
    core::TagSorter::Config config;  // paper geometry
    for (const auto& file : corpus_files()) {
        const OpSeq ops = read_ops_file(file.string());
        const auto err = diff_tag_sorter(ops, config, &engine);
        EXPECT_EQ(err, std::nullopt) << file.filename() << ": " << *err;
    }
}

}  // namespace
}  // namespace wfqs::proptest
