#include "core/fee_revenue.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "btc/rewards.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;
using cn::test::dataset_of;

TEST(FeeRevenue, ShareFormula) {
  btc::Chain chain(630'000);  // subsidy 6.25 BTC
  // One tx of 250 vB at 1000 sat/vB = 250,000 sat fees.
  chain.append(block_with_rates(630'000, {1000.0}));
  const auto shares = per_block_fee_share_percent(dataset_of(chain));
  ASSERT_EQ(shares.size(), 1u);
  const double fees = 250'000.0;
  const double subsidy = 625'000'000.0;
  EXPECT_NEAR(shares[0], fees / (fees + subsidy) * 100.0, 1e-9);
}

TEST(FeeRevenue, EmptyBlockIsZeroShare) {
  btc::Chain chain(630'000);
  chain.append(block_with_rates(630'000, {}));
  EXPECT_DOUBLE_EQ(per_block_fee_share_percent(dataset_of(chain))[0], 0.0);
}

TEST(FeeRevenue, HalvingDoublesShare) {
  // Same fees, half the subsidy -> roughly double the share.
  btc::Chain before(btc::kThirdHalvingHeight - 1);
  before.append(block_with_rates(btc::kThirdHalvingHeight - 1, {1000.0}));
  btc::Chain after(btc::kThirdHalvingHeight);
  after.append(block_with_rates(btc::kThirdHalvingHeight, {1000.0}));
  const double s_before = per_block_fee_share_percent(dataset_of(before))[0];
  const double s_after = per_block_fee_share_percent(dataset_of(after))[0];
  EXPECT_NEAR(s_after / s_before, 2.0, 0.01);
}

TEST(FeeRevenue, SummaryStats) {
  btc::Chain chain(630'000);
  chain.append(block_with_rates(630'000, {1000.0}));
  chain.append(block_with_rates(630'001, {}));
  chain.append(block_with_rates(630'002, {2000.0, 2000.0}));
  const auto s = fee_share_summary(dataset_of(chain));
  EXPECT_EQ(s.count, 3u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_GT(s.max, s.median);
}

TEST(FeeRevenue, HeightRangeSlicing) {
  btc::Chain chain(100);
  chain.append(block_with_rates(100, {10.0}));
  chain.append(block_with_rates(101, {10.0}));
  chain.append(block_with_rates(102, {10.0}));
  const auto all = fee_share_summary(dataset_of(chain));
  const auto slice = fee_share_summary(dataset_of(chain), 101, 101);
  EXPECT_EQ(all.count, 3u);
  EXPECT_EQ(slice.count, 1u);
}

}  // namespace
}  // namespace cn::core
