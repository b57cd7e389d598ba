#include "core/ppe.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;
using cn::test::tx_with_rate;

TEST(Ppe, PerfectOrderingIsZero) {
  const auto block = block_with_rates(1, {10, 8, 6, 4, 2});
  const auto ppe = block_ppe(block);
  ASSERT_TRUE(ppe.has_value());
  EXPECT_DOUBLE_EQ(*ppe, 0.0);
}

TEST(Ppe, ReversedOrderingIsMaximal) {
  const auto block = block_with_rates(1, {1, 2, 3, 4});
  const auto ppe = block_ppe(block);
  ASSERT_TRUE(ppe.has_value());
  // Mean |pred - obs| over percentile ranks of a full reversal:
  // displacements (in rank points) are 100, 33.3, 33.3, 100 -> mean 66.7.
  EXPECT_NEAR(*ppe, 200.0 / 3.0, 1e-9);
}

TEST(Ppe, SingleSwapSmallError) {
  const auto block = block_with_rates(1, {10, 8, 9, 4});  // one adjacent swap
  const auto ppe = block_ppe(block);
  ASSERT_TRUE(ppe.has_value());
  EXPECT_GT(*ppe, 0.0);
  EXPECT_LT(*ppe, 20.0);
}

TEST(Ppe, TiesAreCharitable) {
  // All equal fee-rates: any order satisfies the norm.
  const auto block = block_with_rates(1, {5, 5, 5, 5});
  EXPECT_DOUBLE_EQ(*block_ppe(block), 0.0);
}

TEST(Ppe, UndefinedForTinyBlocks) {
  EXPECT_FALSE(block_ppe(block_with_rates(1, {})).has_value());
  EXPECT_FALSE(block_ppe(block_with_rates(1, {3.0})).has_value());
}

TEST(Ppe, CpfpExclusionRemovesFalsePositive) {
  // A 1 sat/vB child rides directly behind its high-fee parent (package
  // ordering): a gross "violation" if judged naively, none at all once
  // CPFP transactions are excluded.
  const auto parent = tx_with_rate(50.0, 250, 0, 4001);
  const auto child = btc::make_child_payment(
      10, 250, btc::Satoshi{250} /* 1 sat/vB */, parent,
      btc::Address::derive("d"), btc::Satoshi{100}, 4002);
  std::vector<btc::Transaction> txs{parent, child, tx_with_rate(40.0, 250, 0, 4003),
                                    tx_with_rate(20.0, 250, 0, 4004)};
  btc::Coinbase cb;
  const btc::Block block(1, 600, cb, std::move(txs));

  const auto naive = block_ppe(block, /*exclude_cpfp=*/false);
  const auto strict = block_ppe(block, /*exclude_cpfp=*/true);
  ASSERT_TRUE(naive.has_value());
  ASSERT_TRUE(strict.has_value());
  EXPECT_GT(*naive, 0.0);
  // Without the child, the block (50, 40, 20) is perfectly ordered.
  EXPECT_DOUBLE_EQ(*strict, 0.0);
}

TEST(Ppe, PredictedPositionsPermutation) {
  const auto block = block_with_rates(1, {3, 9, 1, 7, 5});
  const auto pairs = predicted_positions(block, false);
  ASSERT_EQ(pairs.size(), 5u);
  std::vector<bool> seen(5, false);
  for (const auto& p : pairs) {
    ASSERT_LT(p.predicted, 5u);
    EXPECT_FALSE(seen[p.predicted]);
    seen[p.predicted] = true;
  }
  // 9 (observed index 1) should be predicted first.
  EXPECT_EQ(pairs[1].predicted, 0u);
}

TEST(Ppe, ChainAggregatesSkipTinyBlocks) {
  btc::Chain chain(1);
  chain.append(block_with_rates(1, {5, 3, 1}));
  chain.append(block_with_rates(2, {}));      // skipped
  chain.append(block_with_rates(3, {2.0}));   // skipped
  chain.append(block_with_rates(4, {1, 9}));  // violation
  const auto ppes = chain_ppe(cn::test::dataset_of(chain));
  ASSERT_EQ(ppes.size(), 2u);
  EXPECT_DOUBLE_EQ(ppes[0], 0.0);
  EXPECT_GT(ppes[1], 0.0);
}

}  // namespace
}  // namespace cn::core
