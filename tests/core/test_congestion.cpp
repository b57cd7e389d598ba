#include "core/congestion.hpp"

#include <gtest/gtest.h>

#include <unordered_map>

#include "../helpers.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;
using cn::test::dataset_of;
using cn::test::tx_with_rate;

/// Chain of 4 blocks at times 600, 1200, 1800, 2400.
btc::Chain four_block_chain() {
  btc::Chain chain(1);
  for (std::uint64_t h = 1; h <= 4; ++h) {
    chain.append(block_with_rates(h, {20.0, 5.0}, "/P/",
                                  600 * static_cast<SimTime>(h)));
  }
  return chain;
}

FirstSeenFn seen_map(const btc::Chain& chain,
                     const std::unordered_map<std::uint64_t, SimTime>& by_height) {
  // Maps every tx of block h to the same first-seen time.
  std::unordered_map<btc::Txid, SimTime> times;
  for (const auto& block : chain.blocks()) {
    const auto it = by_height.find(block.height());
    if (it == by_height.end()) continue;
    for (const auto& tx : block.txs()) times.emplace(tx.id(), it->second);
  }
  return [times](const btc::Txid& id) -> std::optional<SimTime> {
    const auto it = times.find(id);
    if (it == times.end()) return std::nullopt;
    return it->second;
  };
}

TEST(CollectSeenTxs, OmitsUnseen) {
  const auto chain = four_block_chain();
  const auto seen = collect_seen_txs(dataset_of(chain), seen_map(chain, {{1, 100}, {3, 1500}}));
  EXPECT_EQ(seen.size(), 4u);  // blocks 1 and 3 only, 2 txs each
}

TEST(CollectSeenTxs, RecordsRateAndBlock) {
  const auto chain = four_block_chain();
  const auto seen = collect_seen_txs(dataset_of(chain), seen_map(chain, {{2, 700}}));
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].block_height, 2u);
  EXPECT_DOUBLE_EQ(seen[0].fee_rate, 20.0);
  EXPECT_EQ(seen[0].first_seen, 700);
}

TEST(CollectSeenTxs, FlagsCpfpAndParent) {
  const auto parent = tx_with_rate(1.0, 250, 0, 6001);
  const auto child = btc::make_child_payment(
      10, 250, btc::Satoshi{10'000}, parent, btc::Address::derive("d"),
      btc::Satoshi{1}, 6002);
  btc::Coinbase cb;
  btc::Chain chain(1);
  chain.append(btc::Block(1, 600, cb,
                          {parent, child, tx_with_rate(5.0, 250, 0, 6003)}));
  const auto seen = collect_seen_txs(
      dataset_of(chain), [](const btc::Txid&) -> std::optional<SimTime> { return 0; });
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_TRUE(seen[0].cpfp_parent);
  EXPECT_FALSE(seen[0].cpfp);
  EXPECT_TRUE(seen[1].cpfp);
  EXPECT_FALSE(seen[2].cpfp);
  EXPECT_FALSE(seen[2].cpfp_parent);
}

TEST(CommitDelays, NextBlockIsOne) {
  const auto chain = four_block_chain();
  // Seen at t=100 (before block 1 at 600): delay = 1 block.
  const auto seen = collect_seen_txs(dataset_of(chain), seen_map(chain, {{1, 100}}));
  const auto delays = commit_delays_blocks(dataset_of(chain), seen);
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 1.0);
}

TEST(CommitDelays, SkippedBlocksCount) {
  const auto chain = four_block_chain();
  // Seen at t=100 but committed in block 3 (t=1800): blocks 1,2 passed.
  const auto seen = collect_seen_txs(dataset_of(chain), seen_map(chain, {{3, 100}}));
  const auto delays = commit_delays_blocks(dataset_of(chain), seen);
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 3.0);
}

TEST(CommitDelays, RaceClampsToOne) {
  const auto chain = four_block_chain();
  // Observer saw it after its commit block was mined (propagation race).
  const auto seen = collect_seen_txs(dataset_of(chain), seen_map(chain, {{1, 650}}));
  const auto delays = commit_delays_blocks(dataset_of(chain), seen);
  EXPECT_DOUBLE_EQ(delays[0], 1.0);
}

TEST(PendingAt, FiltersByLifetime) {
  const auto chain = four_block_chain();
  const AuditDataset dataset = dataset_of(chain);
  const auto seen = collect_seen_txs(dataset, seen_map(chain, {{2, 700}, {4, 700}}));
  // At t=1000: both block-2 txs (commit at 1200) and block-4 txs (commit
  // at 2400) are pending.
  EXPECT_EQ(pending_at(seen, dataset, 1000).size(), 4u);
  // At t=1200 the block-2 txs are committed.
  EXPECT_EQ(pending_at(seen, dataset, 1200).size(), 2u);
  // At t=500 nothing has been seen yet.
  EXPECT_TRUE(pending_at(seen, dataset, 500).empty());
}

TEST(FeeBand, PaperThresholds) {
  EXPECT_EQ(fee_band(1.0), FeeBand::kLow);
  EXPECT_EQ(fee_band(9.99), FeeBand::kLow);
  EXPECT_EQ(fee_band(10.0), FeeBand::kHigh);
  EXPECT_EQ(fee_band(99.9), FeeBand::kHigh);
  EXPECT_EQ(fee_band(100.0), FeeBand::kExorbitant);
}

TEST(FeeRatesAtLevel, UsesSnapshotSeries) {
  const auto chain = four_block_chain();
  const auto seen = collect_seen_txs(dataset_of(chain), seen_map(chain, {{1, 100}, {2, 700}}));
  node::SnapshotSeries series;
  series.record({50, 10, 50'000});    // none (unit 100k)
  series.record({650, 10, 350'000});  // high-ish: level medium
  const auto low = fee_rates_at_level(seen, series, 100'000,
                                      node::CongestionLevel::kNone);
  const auto med = fee_rates_at_level(seen, series, 100'000,
                                      node::CongestionLevel::kMedium);
  EXPECT_EQ(low.size(), 2u);  // block-1 txs seen at t=100
  EXPECT_EQ(med.size(), 2u);  // block-2 txs seen at t=700
}

TEST(DelaysForBand, AlignedFiltering) {
  const auto chain = four_block_chain();
  const auto seen = collect_seen_txs(dataset_of(chain), seen_map(chain, {{1, 100}}));
  const auto delays = commit_delays_blocks(dataset_of(chain), seen);
  // Rates are 20 (high band) and 5 (low band).
  EXPECT_EQ(delays_for_band(seen, delays, FeeBand::kHigh).size(), 1u);
  EXPECT_EQ(delays_for_band(seen, delays, FeeBand::kLow).size(), 1u);
  EXPECT_TRUE(delays_for_band(seen, delays, FeeBand::kExorbitant).empty());
}

TEST(FeeRatesOfPool, FiltersByBlockPredicate) {
  const auto chain = four_block_chain();
  const auto seen = collect_seen_txs(
      dataset_of(chain), [](const btc::Txid&) -> std::optional<SimTime> { return 0; });
  const auto rates = fee_rates_of_pool(
      seen, [](std::uint64_t height) { return height <= 2; });
  EXPECT_EQ(rates.size(), 4u);
}

}  // namespace
}  // namespace cn::core
