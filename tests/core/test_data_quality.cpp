#include "core/data_quality.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::core {
namespace {

// Observer online 15..600, down until 1800, online 1800..2400.
node::SnapshotSeries series_with_gap() {
  node::SnapshotSeries series;
  for (SimTime t = 15; t <= 600; t += 15) series.record({t, 1, 100});
  for (SimTime t = 1800; t <= 2400; t += 15) series.record({t, 1, 100});
  return series;
}

btc::Chain four_block_chain() {
  btc::Chain chain(100);
  chain.append(cn::test::block_with_rates(100, {5.0, 3.0}, "/A/", 600));
  chain.append(cn::test::block_with_rates(101, {4.0}, "/A/", 1200));
  chain.append(cn::test::block_with_rates(102, {2.0}, "/B/", 2400));
  chain.append(cn::test::block_with_rates(103, {1.0}, "/B/", 2460));
  return chain;
}

TEST(DataQuality, NoEvidenceMeansPerfectCoverage) {
  const auto chain = four_block_chain();
  const auto report = assess_data_quality(chain, nullptr, nullptr);
  EXPECT_FALSE(report.has_snapshots);
  EXPECT_FALSE(report.has_first_seen);
  EXPECT_TRUE(report.gaps.empty());
  EXPECT_DOUBLE_EQ(report.mean_coverage, 1.0);
  for (const auto& bc : report.blocks) {
    EXPECT_DOUBLE_EQ(bc.coverage, 1.0);
    EXPECT_FALSE(bc.in_snapshot_gap);
  }
}

TEST(DataQuality, SnapshotGapZeroesOverlappingBlocks) {
  const auto chain = four_block_chain();
  const auto series = series_with_gap();
  const auto report = assess_data_quality(chain, &series, nullptr);
  ASSERT_TRUE(report.has_snapshots);
  ASSERT_EQ(report.gaps.size(), 1u);
  EXPECT_EQ(report.gaps[0].from, 600);
  EXPECT_EQ(report.gaps[0].to, 1800);

  // Block 101 gathered txs in [600, 1200] and 102 in [1200, 2400]: both
  // overlap the outage. 103's window [2400, 2460] is fully observed.
  EXPECT_FALSE(report.find(100)->in_snapshot_gap);
  EXPECT_TRUE(report.find(101)->in_snapshot_gap);
  EXPECT_TRUE(report.find(102)->in_snapshot_gap);
  EXPECT_FALSE(report.find(103)->in_snapshot_gap);
  EXPECT_DOUBLE_EQ(report.coverage_at(100), 1.0);
  EXPECT_DOUBLE_EQ(report.coverage_at(101), 0.0);
  EXPECT_DOUBLE_EQ(report.coverage_at(102), 0.0);
  EXPECT_DOUBLE_EQ(report.coverage_at(103), 1.0);
  EXPECT_DOUBLE_EQ(report.mean_coverage, 0.5);
}

TEST(DataQuality, FirstSeenCoverageIsPerBlockFraction) {
  btc::Chain chain(10);
  auto block = cn::test::block_with_rates(10, {9.0, 7.0, 5.0, 3.0}, "/A/", 600);
  util::FlatMap<btc::Txid, SimTime> first_seen;
  first_seen.emplace(block.txs()[0].id(), 10);
  first_seen.emplace(block.txs()[2].id(), 20);
  chain.append(std::move(block));
  chain.append(cn::test::block_with_rates(11, {}, "/A/", 1200));  // empty

  const auto report = assess_data_quality(chain, nullptr, &first_seen);
  ASSERT_TRUE(report.has_first_seen);
  EXPECT_EQ(report.first_seen_txs, 2u);
  EXPECT_DOUBLE_EQ(report.find(10)->first_seen_coverage, 0.5);
  EXPECT_DOUBLE_EQ(report.coverage_at(10), 0.5);
  // An empty block has nothing to miss.
  EXPECT_DOUBLE_EQ(report.coverage_at(11), 1.0);
}

TEST(DataQuality, GapOverridesFirstSeenCoverage) {
  const auto chain = four_block_chain();
  const auto series = series_with_gap();
  util::FlatMap<btc::Txid, SimTime> first_seen;
  for (const auto& block : chain.blocks()) {
    for (const auto& tx : block.txs()) first_seen.emplace(tx.id(), 1);
  }
  const auto report = assess_data_quality(chain, &series, &first_seen);
  // Fully first-seen-covered, but the outage still zeroes block 101.
  EXPECT_DOUBLE_EQ(report.find(101)->first_seen_coverage, 1.0);
  EXPECT_DOUBLE_EQ(report.coverage_at(101), 0.0);
}

TEST(DataQuality, UnknownHeightHasNoEvidenceAgainstIt) {
  const auto report =
      assess_data_quality(four_block_chain(), nullptr, nullptr);
  EXPECT_DOUBLE_EQ(report.coverage_at(999), 1.0);
  EXPECT_EQ(report.find(999), nullptr);
}

TEST(SnapshotGaps, DetectsWindowsAgainstCadence) {
  const auto series = series_with_gap();
  const auto gaps = series.gaps(15, 2.0);
  ASSERT_EQ(gaps.size(), 1u);
  EXPECT_EQ(gaps[0].from, 600);
  EXPECT_EQ(gaps[0].to, 1800);
  // A generous factor swallows the outage.
  EXPECT_TRUE(series.gaps(15, 100.0).empty());
  // An on-cadence series has no gaps.
  node::SnapshotSeries steady;
  for (SimTime t = 15; t <= 150; t += 15) steady.record({t, 1, 1});
  EXPECT_TRUE(steady.gaps(15, 2.0).empty());
}

}  // namespace
}  // namespace cn::core
