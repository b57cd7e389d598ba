#include "core/darkfee.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "../helpers.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;

struct DarkFeeWorld {
  btc::Chain chain{1};
  btc::CoinbaseTagRegistry registry;
  std::unordered_set<btc::Txid> accelerated;

  DarkFeeWorld() {
    registry.add("BTC.com", "/BTC.com/");
    registry.add("Other", "/Other/");
    // 10 BTC.com blocks; the first tx of each is a hoisted 1 sat/vB tx
    // (accelerated, SPPE ~ +100); the rest are clean.
    for (std::uint64_t h = 1; h <= 10; ++h) {
      auto block = block_with_rates(h, {1.0, 50.0, 45.0, 40.0, 35.0, 30.0},
                                    "/BTC.com/", 600 * static_cast<SimTime>(h));
      accelerated.insert(block.txs()[0].id());
      chain.append(std::move(block));
    }
    // Other pool's blocks also contain hoisted txs, but those are NOT in
    // the service ledger (different pool's customers, unknowable).
    for (std::uint64_t h = 11; h <= 14; ++h) {
      chain.append(block_with_rates(h, {1.0, 50.0, 45.0}, "/Other/",
                                    600 * static_cast<SimTime>(h)));
    }
    // A 1-tx block has no SPPE (NaN in the dataset's column): its
    // transaction never qualifies, at any threshold.
    chain.append(block_with_rates(15, {1.0}, "/Other/", 600 * 15));
  }

  IsAcceleratedFn query() const {
    return [this](const btc::Txid& id) { return accelerated.contains(id); };
  }

  AuditDataset dataset() const { return cn::test::dataset_of(chain, registry); }
};

TEST(DarkFee, BucketsCountAndValidate) {
  DarkFeeWorld world;
  const AuditDataset dataset = world.dataset();
  const auto buckets = darkfee_buckets(dataset, dataset.pool_id("BTC.com"),
                                       world.query(), {99.0, 50.0, 1.0});
  ASSERT_EQ(buckets.size(), 3u);
  // SPPE >= 99: exactly the 10 hoisted txs, all accelerated.
  EXPECT_EQ(buckets[0].tx_count, 10u);
  EXPECT_EQ(buckets[0].accelerated, 10u);
  EXPECT_DOUBLE_EQ(buckets[0].accelerated_fraction(), 1.0);
  // Wider thresholds include more txs but no more accelerated ones:
  // purity decreases monotonically (the Table 4 shape).
  EXPECT_GE(buckets[1].tx_count, buckets[0].tx_count);
  EXPECT_GE(buckets[2].tx_count, buckets[1].tx_count);
  EXPECT_EQ(buckets[1].accelerated, 10u);
  EXPECT_LE(buckets[2].accelerated_fraction(), buckets[1].accelerated_fraction());
  EXPECT_LE(buckets[1].accelerated_fraction(), buckets[0].accelerated_fraction());
}

TEST(DarkFee, OnlyAuditedPoolsBlocksAreScanned) {
  DarkFeeWorld world;
  const AuditDataset dataset = world.dataset();
  const auto buckets = darkfee_buckets(dataset, dataset.pool_id("Other"),
                                       world.query(), {99.0, -100.0});
  ASSERT_EQ(buckets.size(), 2u);
  EXPECT_EQ(buckets[0].tx_count, 4u);      // hoisted txs in Other's blocks
  EXPECT_EQ(buckets[0].accelerated, 0u);   // none bought BTC.com's service
  EXPECT_EQ(buckets[1].tx_count, 12u);     // all but the 1-tx block's
}

TEST(DarkFee, CountAcceleratedCountsTheHoistedTxs) {
  DarkFeeWorld world;
  const AuditDataset dataset = world.dataset();
  EXPECT_EQ(count_accelerated(dataset, dataset.pool_id("BTC.com"), 99.0), 10u);
  EXPECT_EQ(count_accelerated(dataset, dataset.pool_id("Other"), -100.0), 12u);
  EXPECT_EQ(count_accelerated(dataset, dataset.pool_id("NoPool"), 99.0), 0u);
}

TEST(DarkFee, AsksTheServiceOncePerQualifyingTx) {
  DarkFeeWorld world;
  const AuditDataset dataset = world.dataset();
  std::size_t queries = 0;
  const IsAcceleratedFn counting = [&](const btc::Txid& id) {
    ++queries;
    return world.accelerated.contains(id);
  };
  const auto buckets = darkfee_buckets(dataset, dataset.pool_id("BTC.com"), counting,
                                       {99.0, 50.0, 1.0});
  EXPECT_EQ(queries, buckets[2].tx_count);  // every SPPE >= 1 tx, once
  EXPECT_EQ(buckets[0].accelerated, 10u);
}

TEST(DarkFee, RandomSampleControlFindsAlmostNothing) {
  DarkFeeWorld world;
  const AuditDataset dataset = world.dataset();
  const PoolId btc_com = dataset.pool_id("BTC.com");
  // 10 accelerated of 60 BTC.com txs: a 20-tx sample has a few; the real
  // point is that the call is deterministic and bounded.
  const auto hits =
      accelerated_in_random_sample(dataset, btc_com, world.query(), 20, 7);
  EXPECT_LE(hits, 10u);
  const auto again =
      accelerated_in_random_sample(dataset, btc_com, world.query(), 20, 7);
  EXPECT_EQ(hits, again);
  // A sample as large as the pool finds every accelerated tx.
  EXPECT_EQ(accelerated_in_random_sample(dataset, btc_com, world.query(), 60, 7), 10u);
}

TEST(DarkFee, RandomSampleOfUnknownPoolIsZero) {
  DarkFeeWorld world;
  const AuditDataset dataset = world.dataset();
  EXPECT_EQ(accelerated_in_random_sample(dataset, dataset.pool_id("NoPool"),
                                         world.query(), 100, 1),
            0u);
}

TEST(DarkFee, EmptyThresholdsYieldEmptyBuckets) {
  DarkFeeWorld world;
  const AuditDataset dataset = world.dataset();
  EXPECT_TRUE(
      darkfee_buckets(dataset, dataset.pool_id("BTC.com"), world.query(), {}).empty());
}

}  // namespace
}  // namespace cn::core
