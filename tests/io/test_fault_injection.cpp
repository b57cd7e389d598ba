// Property tests for the fault-injection harness (testing/fault_injector):
// whatever a seeded injector does to an exported data set at a bounded
// corruption rate, (a) lenient import still yields a usable chain, (b)
// strict import pinpoints the first detectable fault's exact file and
// line, and (c) the coverage-aware audit masks every block that overlaps
// an injected snapshot gap — byte-identically across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "core/audit_pipeline.hpp"
#include "core/data_quality.hpp"
#include "io/dataset_io.hpp"
#include "sim/dataset.hpp"
#include "testing/fault_injector.hpp"

namespace cn::io {
namespace {

// One simulated world shared by every test in this file (simulation is
// the expensive part; injection and import are cheap).
const sim::SimResult& shared_world() {
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kA, 5, 0.03);
  return world;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  // Suffix with the test name: ctest shards gtest cases into separate
  // processes, so a shared directory would race under `ctest -j`.
  std::string stem_ =
      ::testing::TempDir() + "/cn_fi_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string clean_ = stem_ + "_clean";
  std::string dirty_ = stem_ + "_dirty";

  void SetUp() override {
    std::filesystem::remove_all(clean_);
    std::filesystem::remove_all(dirty_);
    const sim::SimResult& world = shared_world();
    ASSERT_TRUE(export_chain(world.chain, clean_));
    ASSERT_TRUE(export_snapshots(world.observer.snapshots(),
                                 clean_ + "/snapshots.csv"));
    ASSERT_TRUE(export_first_seen(world.observer.first_seen_map(),
                                  clean_ + "/first_seen.csv"));
  }
  void TearDown() override {
    std::filesystem::remove_all(clean_);
    std::filesystem::remove_all(dirty_);
  }
};

TEST_F(FaultInjectionTest, SameSeedSameFaults) {
  cn::testing::FaultOptions options;
  options.row_corruption_rate = 0.03;
  options.snapshot_gaps = 1;
  const auto log_a =
      cn::testing::FaultInjector(99).inject_dataset(clean_, dirty_, options);
  const std::string dirty_b = dirty_ + "_b";
  const auto log_b =
      cn::testing::FaultInjector(99).inject_dataset(clean_, dirty_b, options);
  ASSERT_EQ(log_a.faults.size(), log_b.faults.size());
  for (std::size_t i = 0; i < log_a.faults.size(); ++i) {
    EXPECT_EQ(log_a.faults[i].kind, log_b.faults[i].kind);
    EXPECT_EQ(log_a.faults[i].line, log_b.faults[i].line);
    EXPECT_EQ(log_a.faults[i].detail, log_b.faults[i].detail);
  }
  std::filesystem::remove_all(dirty_b);
}

TEST_F(FaultInjectionTest, LenientImportNeverCrashesAtFivePercent) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u, 6u}) {
    std::filesystem::remove_all(dirty_);
    cn::testing::FaultOptions options;
    options.row_corruption_rate = 0.05;
    options.truncate_tail = seed % 2 == 0;
    options.snapshot_gaps = seed % 3;
    cn::testing::FaultInjector injector(seed);
    const auto log = injector.inject_dataset(clean_, dirty_, options);

    const auto chain = import_chain(dirty_, LoadPolicy::kLenient);
    ASSERT_TRUE(chain.has_value()) << "seed " << seed << ": "
                                   << chain.report.summary();
    EXPECT_GT(chain->size(), 0u);
    const auto snapshots =
        import_snapshots(dirty_ + "/snapshots.csv", LoadPolicy::kLenient);
    ASSERT_TRUE(snapshots.has_value()) << "seed " << seed;
    const auto first_seen =
        import_first_seen(dirty_ + "/first_seen.csv", LoadPolicy::kLenient);
    ASSERT_TRUE(first_seen.has_value()) << "seed " << seed;

    // Lenient mode records its decisions instead of hiding them.
    if (!log.faults.empty()) {
      EXPECT_FALSE(chain.report.clean() && snapshots.report.clean() &&
                   first_seen.report.clean())
          << "seed " << seed << " injected " << log.faults.size()
          << " faults but every report came back clean";
    }
  }
}

TEST_F(FaultInjectionTest, StrictImportPinpointsTheInjectedLine) {
  cn::testing::FaultOptions options;
  options.row_corruption_rate = 0.02;
  options.kinds = {cn::testing::FaultKind::kCorruptField};
  bool exercised = false;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    std::filesystem::remove_all(dirty_);
    cn::testing::FaultInjector injector(seed);
    const auto log = injector.inject_dataset(clean_, dirty_, options);

    // The chain import reads blocks, txs, inputs, outputs in that order
    // and aborts at the first defect; predict it from the log.
    const std::vector<std::string> read_order = {
        dirty_ + "/blocks.csv", dirty_ + "/txs.csv", dirty_ + "/inputs.csv",
        dirty_ + "/outputs.csv"};
    std::map<std::string, std::size_t> first_line;
    for (const auto* fault : log.detectable()) {
      const auto it = first_line.find(fault->file);
      if (it == first_line.end() || fault->line < it->second) {
        first_line[fault->file] = fault->line;
      }
    }
    const auto expected = std::find_if(
        read_order.begin(), read_order.end(),
        [&](const std::string& f) { return first_line.count(f) != 0; });
    if (expected == read_order.end()) continue;  // no fault hit chain files
    exercised = true;

    const auto strict = import_chain(dirty_, LoadPolicy::kStrict);
    EXPECT_FALSE(strict.has_value()) << "seed " << seed;
    ASSERT_NE(strict.report.first_error(), nullptr) << "seed " << seed;
    EXPECT_EQ(strict.report.first_error()->file, *expected) << "seed " << seed;
    EXPECT_EQ(strict.report.first_error()->line, first_line[*expected])
        << "seed " << seed << ": " << strict.report.summary();
  }
  EXPECT_TRUE(exercised) << "no seed injected a detectable chain fault";
}

TEST_F(FaultInjectionTest, AuditMasksBlocksInInjectedSnapshotGaps) {
  cn::testing::FaultOptions options;
  options.row_corruption_rate = 0.0;  // isolate the gap effect
  options.snapshot_gaps = 1;
  options.gap_width = 3600;
  cn::testing::FaultInjector injector(21);
  const auto log = injector.inject_dataset(clean_, dirty_, options);
  ASSERT_EQ(log.count(cn::testing::FaultKind::kDeleteSnapshotWindow), 1u);
  const auto& gap = log.faults.front();

  const auto chain = import_chain(dirty_, LoadPolicy::kLenient);
  ASSERT_TRUE(chain.has_value());
  const auto snapshots =
      import_snapshots(dirty_ + "/snapshots.csv", LoadPolicy::kLenient);
  ASSERT_TRUE(snapshots.has_value());
  const auto quality = core::assess_data_quality(*chain, &*snapshots, nullptr);

  // Every block whose arrival window overlaps the deleted window must be
  // marked, and must land in the audit's masked set.
  core::AuditOptions audit_options;
  audit_options.threads = 1;
  const auto report =
      core::run_full_audit(*chain, btc::CoinbaseTagRegistry::paper_registry(),
                           &quality, audit_options);
  ASSERT_TRUE(report.has_quality);
  EXPECT_GE(report.snapshot_gaps, 1u);

  SimTime prev = chain->front().mined_at();
  std::size_t overlapping = 0;
  for (const btc::Block& block : chain->blocks()) {
    const SimTime from = std::min(prev, block.mined_at());
    const SimTime to = block.mined_at();
    prev = block.mined_at();
    if (!(from < gap.gap_to && gap.gap_from < to)) continue;
    ++overlapping;
    EXPECT_DOUBLE_EQ(quality.coverage_at(block.height()), 0.0)
        << "height " << block.height();
    EXPECT_TRUE(std::binary_search(report.low_coverage_heights.begin(),
                                   report.low_coverage_heights.end(),
                                   block.height()))
        << "height " << block.height() << " not masked";
  }
  EXPECT_GT(overlapping, 0u) << "gap " << gap.gap_from << ".." << gap.gap_to
                             << " overlapped no blocks";
}

TEST_F(FaultInjectionTest, QualityAwareAuditIsByteIdenticalAcrossThreads) {
  cn::testing::FaultOptions options;
  options.row_corruption_rate = 0.01;
  options.snapshot_gaps = 1;
  cn::testing::FaultInjector injector(33);
  injector.inject_dataset(clean_, dirty_, options);

  const auto chain = import_chain(dirty_, LoadPolicy::kLenient);
  ASSERT_TRUE(chain.has_value());
  const auto snapshots =
      import_snapshots(dirty_ + "/snapshots.csv", LoadPolicy::kLenient);
  ASSERT_TRUE(snapshots.has_value());
  const auto first_seen =
      import_first_seen(dirty_ + "/first_seen.csv", LoadPolicy::kLenient);
  ASSERT_TRUE(first_seen.has_value());
  const auto quality =
      core::assess_data_quality(*chain, &*snapshots, &*first_seen);

  const auto rendered = [&](unsigned threads) {
    core::AuditOptions audit_options;
    audit_options.threads = threads;
    const auto report =
        core::run_full_audit(*chain, btc::CoinbaseTagRegistry::paper_registry(),
                             &quality, audit_options);
    std::FILE* f = std::tmpfile();
    core::print_audit_report(report, f);
    std::fseek(f, 0, SEEK_SET);
    std::string text;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
    std::fclose(f);
    return text;
  };
  const std::string serial = rendered(1);
  EXPECT_EQ(serial, rendered(4));
  EXPECT_NE(serial.find("data quality:"), std::string::npos);
}

// File-level kinds listed in FaultOptions::kinds are not row faults:
// inject_file must pass every row through and log nothing for them,
// not drop rows silently.
TEST(FaultInjection, FileLevelKindsLeaveEveryRowInPlace) {
  const std::string stem = ::testing::TempDir() + "/cn_fi_file_level_kinds";
  const std::string src = stem + "_in.csv";
  const std::string dst = stem + "_out.csv";
  const std::string rows = "height,fee\n1,10\n2,20\n3,30\n4,40\n";
  std::ofstream(src, std::ios::binary) << rows;

  for (const cn::testing::FaultKind kind :
       {cn::testing::FaultKind::kTruncateFile,
        cn::testing::FaultKind::kDeleteSnapshotWindow,
        cn::testing::FaultKind::kCorruptSection,
        cn::testing::FaultKind::kTornWrite}) {
    cn::testing::FaultOptions options;
    options.row_corruption_rate = 1.0;
    options.kinds = {kind};
    cn::testing::InjectionLog log;
    ASSERT_TRUE(cn::testing::FaultInjector(3).inject_file(src, dst, options, log));
    std::stringstream written;
    written << std::ifstream(dst, std::ios::binary).rdbuf();
    EXPECT_EQ(written.str(), rows) << cn::testing::to_string(kind);
    EXPECT_TRUE(log.faults.empty()) << cn::testing::to_string(kind);
  }
  std::filesystem::remove(src);
  std::filesystem::remove(dst);
}

}  // namespace
}  // namespace cn::io
