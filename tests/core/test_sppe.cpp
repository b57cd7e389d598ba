#include "core/sppe.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;

TEST(Sppe, ZeroForPerfectOrdering) {
  const auto block = block_with_rates(1, {9, 7, 5, 3});
  const auto sppe = block_sppe(block);
  ASSERT_EQ(sppe.size(), 4u);
  for (double s : sppe) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(Sppe, PositiveForHoistedLowFeeTx) {
  // A 1 sat/vB tx at the very top of a block of high-fee txs: predicted
  // bottom (rank 100), observed top (rank 0) -> SPPE = +100.
  const auto block = block_with_rates(1, {1, 50, 40, 30, 20});
  const auto sppe = block_sppe(block);
  EXPECT_DOUBLE_EQ(sppe[0], 100.0);
  // Everyone else was pushed down by one slot: small negative.
  for (std::size_t i = 1; i < sppe.size(); ++i) EXPECT_LT(sppe[i], 0.0);
}

TEST(Sppe, NegativeForBuriedHighFeeTx) {
  const auto block = block_with_rates(1, {50, 40, 30, 20, 90});
  const auto sppe = block_sppe(block);
  EXPECT_DOUBLE_EQ(sppe[4], -100.0);
}

TEST(Sppe, SumIsZero) {
  // Signed displacements over a permutation cancel.
  const auto block = block_with_rates(1, {3, 9, 1, 7, 5, 2, 8});
  const auto sppe = block_sppe(block);
  double sum = 0;
  for (double s : sppe) sum += s;
  EXPECT_NEAR(sum, 0.0, 1e-9);
}

TEST(Sppe, EmptyForTinyBlocks) {
  EXPECT_TRUE(block_sppe(block_with_rates(1, {})).empty());
  EXPECT_TRUE(block_sppe(block_with_rates(1, {1.0})).empty());
}

TEST(Sppe, TxSppeIndexesBlockSppe) {
  // The dataset's per-transaction column holds block_sppe by position.
  btc::Chain chain(1);
  chain.append(block_with_rates(1, {1, 50, 40}));
  const AuditDataset dataset = cn::test::dataset_of(chain);
  const std::vector<double> want = block_sppe(chain.blocks()[0]);
  for (TxIdx t = 0; t < 3; ++t) EXPECT_EQ(dataset.sppe()[t], want[t]);
}

TEST(MeanSppe, RestrictsToPool) {
  btc::Chain chain(1);
  chain.append(block_with_rates(1, {1, 50, 40}, "/Selfish/"));   // hoisted tx at 0
  chain.append(block_with_rates(2, {60, 50, 40}, "/Honest/"));   // clean

  btc::CoinbaseTagRegistry registry;
  registry.add("Selfish", "/Selfish/");
  registry.add("Honest", "/Honest/");
  const AuditDataset dataset = cn::test::dataset_of(chain, registry);

  // c-txs: position 0 in both blocks (TxIdx counts 3 per block).
  const std::vector<TxIdx> txs = {0, 3};

  std::size_t count = 0;
  const double selfish = mean_sppe(dataset, txs, dataset.pool_id("Selfish"), &count);
  EXPECT_EQ(count, 1u);
  EXPECT_DOUBLE_EQ(selfish, 100.0);

  const double honest = mean_sppe(dataset, txs, dataset.pool_id("Honest"), &count);
  EXPECT_EQ(count, 1u);
  EXPECT_DOUBLE_EQ(honest, 0.0);

  // No pool restriction: averages both.
  const double all = mean_sppe(dataset, txs, kNoPoolId, &count);
  EXPECT_EQ(count, 2u);
  EXPECT_DOUBLE_EQ(all, 50.0);
}

TEST(MeanSppe, EmptySetYieldsZeroCount) {
  btc::Chain chain(1);
  chain.append(block_with_rates(1, {5, 3}));
  std::size_t count = 99;
  const double m = mean_sppe(cn::test::dataset_of(chain), {}, kNoPoolId, &count);
  EXPECT_EQ(count, 0u);
  EXPECT_DOUBLE_EQ(m, 0.0);
}

}  // namespace
}  // namespace cn::core
