#include "node/fee_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "../helpers.hpp"
#include "stats/descriptive.hpp"
#include "util/rng.hpp"

namespace cn::node {
namespace {

using cn::test::block_with_rates;

/// The window's fee-rate at quantile @p q.
double quantile(const FeeEstimator& est, double q) {
  const std::vector<double> rates = est.quantiles(std::span(&q, 1));
  EXPECT_EQ(rates.size(), 1u);
  return rates.empty() ? 0.0 : rates.front();
}

TEST(FeeEstimator, FallsBackWithoutHistory) {
  // No history, no quantiles: the engine keeps its previous recommendation.
  const FeeEstimator est(6);
  const double q = 0.5;
  EXPECT_TRUE(est.quantiles(std::span(&q, 1)).empty());
  EXPECT_EQ(est.sample_count(), 0u);
}

TEST(FeeEstimator, MedianOfRecentBlocks) {
  FeeEstimator est(6);
  est.on_block(block_with_rates(1, {1, 2, 3, 4, 5}));
  EXPECT_DOUBLE_EQ(quantile(est, 0.5), 3.0);
  EXPECT_EQ(est.sample_count(), 5u);
}

TEST(FeeEstimator, WindowEvictsOldBlocks) {
  FeeEstimator est(2);
  est.on_block(block_with_rates(1, {100, 100}));
  est.on_block(block_with_rates(2, {1, 1}));
  est.on_block(block_with_rates(3, {2, 2}));
  // Block 1 is out of the window: only rates {1,1,2,2} remain.
  EXPECT_EQ(est.sample_count(), 4u);
  EXPECT_DOUBLE_EQ(quantile(est, 1.0), 2.0);
  EXPECT_DOUBLE_EQ(quantile(est, 0.0), 1.0);
}

TEST(FeeEstimator, PercentilesOrdered) {
  FeeEstimator est(6);
  est.on_block(block_with_rates(1, {1, 5, 10, 20, 50}));
  const std::vector<double> qs = {0.25, 0.5, 0.75};
  const std::vector<double> rates = est.quantiles(qs);
  ASSERT_EQ(rates.size(), 3u);
  EXPECT_LE(rates[0], rates[1]);
  EXPECT_LE(rates[1], rates[2]);
}

TEST(FeeEstimator, QuantilesEqualQuantileSortedOfTheSortedWindow) {
  // Windows of 1, 2 and 3 rates, then random ones whose rates take few
  // distinct values (many ties), spread over blocks (some empty); read
  // at repeated, boundary and interior quantiles. Values must match
  // stats::quantile_sorted bit for bit.
  const std::vector<double> qs = {0.0,  0.0, 0.1,  0.25,  0.25, 0.5,
                                  0.5,  0.6, 0.75, 0.999, 1.0,  1.0};
  Rng rng(17);
  std::vector<std::size_t> sizes = {1, 2, 3};
  for (int i = 0; i < 300; ++i) sizes.push_back(1 + rng.uniform_below(80));
  for (const std::size_t n : sizes) {
    FeeEstimator est(1000);
    std::vector<double> window;
    std::uint64_t height = 1;
    while (window.size() < n) {
      std::vector<double> rates(std::min<std::uint64_t>(n - window.size(),
                                                        rng.uniform_below(12)));
      for (double& r : rates) r = 1.0 + static_cast<double>(rng.uniform_below(5)) / 2.0;
      const btc::Block block = block_with_rates(height++, rates);
      for (const btc::Transaction& tx : block.txs()) {
        window.push_back(tx.fee_rate().sat_per_vbyte());
      }
      est.on_block(block);
    }
    std::sort(window.begin(), window.end());
    const std::vector<double> got = est.quantiles(qs);
    ASSERT_EQ(got.size(), qs.size()) << "n " << n;
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const double want = stats::quantile_sorted(window, qs[i]);
      EXPECT_EQ(got[i], want) << "n " << n << " q " << qs[i];
      EXPECT_EQ(quantile(est, qs[i]), want) << "n " << n << " q " << qs[i];
    }
  }
  EXPECT_TRUE(FeeEstimator(6).quantiles(qs).empty());
}

TEST(FeeEstimator, EmptyBlocksContributeNothing) {
  FeeEstimator est(3);
  est.on_block(block_with_rates(1, {}));
  EXPECT_EQ(est.sample_count(), 0u);
  const double q = 0.5;
  EXPECT_TRUE(est.quantiles(std::span(&q, 1)).empty());
  est.on_block(block_with_rates(2, {4}));
  EXPECT_DOUBLE_EQ(quantile(est, 0.5), 4.0);
}

}  // namespace
}  // namespace cn::node
