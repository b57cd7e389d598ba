#include "core/prio_test.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;

/// Builds a chain of @p n blocks where pool "Hog" mines every block whose
/// index is divisible by @p hog_every (its hash share ~ 1/hog_every), and
/// c-txs land in Hog blocks with probability controlled by the caller.
struct TestChain {
  btc::Chain chain{1};
  btc::CoinbaseTagRegistry registry;

  TestChain() {
    registry.add("Hog", "/Hog/");
    registry.add("Rest", "/Rest/");
  }

  void add_block(bool hog, std::vector<double> rates) {
    const std::uint64_t h = chain.empty() ? 1 : chain.next_height();
    chain.append(cn::test::block_with_rates(h, rates, hog ? "/Hog/" : "/Rest/",
                                            600 * static_cast<SimTime>(h)));
  }

  /// TxIdx of @p position in the block added last.
  TxIdx last(std::size_t position) const {
    return static_cast<TxIdx>(chain.total_tx_count() - chain.back().tx_count() +
                              position);
  }

  AuditDataset dataset() const { return cn::test::dataset_of(chain, registry); }
};

PrioTestResult test_hog(const TestChain& world, std::span<const TxIdx> c_txs,
                        double theta0_override = -1.0) {
  const AuditDataset dataset = world.dataset();
  return test_differential_prioritization(dataset, dataset.pool_id("Hog"), c_txs,
                                          theta0_override);
}

double windowed_hog(const TestChain& world, std::span<const TxIdx> c_txs,
                    unsigned windows) {
  const AuditDataset dataset = world.dataset();
  return windowed_acceleration_p_value(dataset, dataset.pool_id("Hog"), c_txs,
                                       windows);
}

TEST(PrioTest, CountCBlocksDedupes) {
  TestChain world;
  std::vector<TxIdx> c_txs;
  world.add_block(false, {5.0, 3.0});
  c_txs.push_back(world.last(0));
  c_txs.push_back(world.last(1));
  world.add_block(false, {5.0, 3.0});
  c_txs.push_back(world.last(0));
  EXPECT_EQ(count_c_blocks(world.dataset(), c_txs), 2u);
}

TEST(PrioTest, RestrictToHeights) {
  TestChain world;
  std::vector<TxIdx> c_txs;
  for (int i = 0; i < 3; ++i) {  // heights 1, 2, 3
    world.add_block(false, {5.0});
    c_txs.push_back(world.last(0));
  }
  const AuditDataset dataset = world.dataset();
  const auto slice = restrict_to_heights(dataset, c_txs, 2, 3);
  ASSERT_EQ(slice.size(), 2u);
  EXPECT_EQ(dataset.height_of(slice[0]), 2u);
}

TEST(PrioTest, DetectsPlantedAcceleration) {
  TestChain world;
  // 100 blocks; Hog mines every 5th (share 0.2). All c-txs land in Hog
  // blocks at the top despite a bottom-tier fee.
  std::vector<TxIdx> c_txs;
  for (int i = 0; i < 100; ++i) {
    const bool hog = i % 5 == 0;
    if (hog) {
      world.add_block(true, {1.0, 50.0, 40.0, 30.0});  // hoisted c-tx at 0
      c_txs.push_back(world.last(0));
    } else {
      world.add_block(false, {50.0, 40.0, 30.0, 20.0});
    }
  }
  const auto result = test_hog(world, c_txs);
  EXPECT_EQ(result.pool, "Hog");
  EXPECT_EQ(result.y, 20u);
  EXPECT_EQ(result.x, 20u);
  EXPECT_NEAR(result.theta0, 0.2, 1e-12);
  EXPECT_LT(result.p_accelerate, 1e-12);
  EXPECT_GT(result.p_decelerate, 0.999);
  EXPECT_DOUBLE_EQ(result.sppe, 100.0);
  EXPECT_EQ(result.sppe_count, 20u);
}

TEST(PrioTest, NullWhenProportional) {
  TestChain world;
  std::vector<TxIdx> c_txs;
  // c-txs land in every block (proportional to hash share by construction).
  for (int i = 0; i < 100; ++i) {
    world.add_block(i % 5 == 0, {50.0, 40.0, 5.0});
    c_txs.push_back(world.last(2));  // normal position
  }
  const auto result = test_hog(world, c_txs);
  EXPECT_EQ(result.y, 100u);
  EXPECT_EQ(result.x, 20u);
  EXPECT_GT(result.p_accelerate, 0.3);
  EXPECT_GT(result.p_decelerate, 0.3);
  EXPECT_DOUBLE_EQ(result.sppe, 0.0);  // c-txs exactly where predicted
}

TEST(PrioTest, DetectsPlantedDeceleration) {
  TestChain world;
  std::vector<TxIdx> c_txs;
  // Hog refuses c-txs: they only ever appear in Rest blocks.
  for (int i = 0; i < 200; ++i) {
    const bool hog = i % 4 == 0;  // share 0.25
    world.add_block(hog, {50.0, 40.0, 30.0});
    if (!hog) c_txs.push_back(world.last(1));
  }
  const auto result = test_hog(world, c_txs);
  EXPECT_EQ(result.x, 0u);
  EXPECT_EQ(result.y, 150u);
  EXPECT_LT(result.p_decelerate, 1e-12);
  EXPECT_GT(result.p_accelerate, 0.999);
}

TEST(PrioTest, EmptyCsetInconclusive) {
  TestChain world;
  world.add_block(true, {5.0, 3.0});
  const auto result = test_hog(world, {});
  EXPECT_EQ(result.y, 0u);
  EXPECT_DOUBLE_EQ(result.p_accelerate, 1.0);
  EXPECT_DOUBLE_EQ(result.p_decelerate, 1.0);
}

TEST(PrioTest, ThetaOverrideRespected) {
  TestChain world;
  std::vector<TxIdx> c_txs;
  for (int i = 0; i < 50; ++i) {
    world.add_block(i % 2 == 0, {50.0, 1.0});
    if (i % 2 == 0) c_txs.push_back(world.last(1));
  }
  // With its true share (0.5) Hog mining all c-blocks is still striking...
  const auto with_true = test_hog(world, c_txs);
  // ...but with a (wrong) override of 0.99 it is expected.
  const auto with_override = test_hog(world, c_txs, 0.99);
  EXPECT_LT(with_true.p_accelerate, 1e-6);
  EXPECT_GT(with_override.p_accelerate, 0.5);
}

TEST(PrioTest, WindowedFisherDetectsPersistentEffect) {
  TestChain world;
  std::vector<TxIdx> c_txs;
  for (int i = 0; i < 200; ++i) {
    const bool hog = i % 5 == 0;
    if (hog) {
      world.add_block(true, {1.0, 50.0, 40.0});
      c_txs.push_back(world.last(0));
    } else {
      world.add_block(false, {50.0, 40.0});
    }
  }
  EXPECT_LT(windowed_hog(world, c_txs, 4), 1e-10);
  // A pool no block is attributed to has no window to test.
  EXPECT_DOUBLE_EQ(windowed_acceleration_p_value(world.dataset(), kNoPoolId, c_txs, 4),
                   1.0);
}

TEST(PrioTest, WindowedFisherNullIsCalibratedish) {
  TestChain world;
  std::vector<TxIdx> c_txs;
  for (int i = 0; i < 200; ++i) {
    world.add_block(i % 5 == 0, {50.0, 40.0, 5.0});
    c_txs.push_back(world.last(2));
  }
  EXPECT_GT(windowed_hog(world, c_txs, 4), 0.05);
}

TEST(PrioTest, WindowedFisherOnAChainShorterThanItsWindows) {
  // Two blocks, four windows: two windows hold no block. At genesis
  // height 0 the last height of the first window used to wrap around
  // and its block scan never ended.
  for (const std::uint64_t genesis : {std::uint64_t{0}, std::uint64_t{5}}) {
    btc::CoinbaseTagRegistry registry;
    registry.add("Hog", "/Hog/");
    btc::Chain chain(genesis);
    chain.append(block_with_rates(genesis, {1.0, 50.0}, "/Hog/"));
    chain.append(block_with_rates(genesis + 1, {1.0, 50.0}, "/Rest/"));
    const AuditDataset dataset = cn::test::dataset_of(chain, registry);
    const std::vector<TxIdx> c_txs = {0, 2};
    EXPECT_DOUBLE_EQ(
        windowed_acceleration_p_value(dataset, dataset.pool_id("Hog"), c_txs, 4), 1.0)
        << "genesis " << genesis;
  }
}

}  // namespace
}  // namespace cn::core
