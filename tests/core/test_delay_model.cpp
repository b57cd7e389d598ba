#include "core/delay_model.hpp"

#include <gtest/gtest.h>

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "sim/dataset.hpp"

namespace cn::core {
namespace {

/// Synthetic observations: delay = max(1, 60 / fee_rate) with a fixed
/// congestion level — strictly decreasing in fee.
struct SyntheticFixture {
  std::vector<SeenTx> txs;
  std::vector<double> delays;
  node::SnapshotSeries snapshots;

  SyntheticFixture() {
    snapshots.record({1, 10, 5'000'000});  // permanently "high" at 1MB unit
    for (int i = 0; i < 3000; ++i) {
      const double rate = 1.0 + (i % 100);
      SeenTx tx;
      tx.first_seen = 10 + i;
      tx.fee_rate = rate;
      txs.push_back(tx);
      delays.push_back(std::max(1.0, 60.0 / rate));
    }
  }
};

TEST(DelayModel, PredictsMonotoneDecreasingDelay) {
  SyntheticFixture f;
  const auto model = DelayModel::fit(f.txs, f.delays, f.snapshots, 1'000'000);
  EXPECT_EQ(model.sample_count(), 3000u);
  const double slow = model.predict_quantile(2.0, node::CongestionLevel::kHigh, 0.5);
  const double mid = model.predict_quantile(15.0, node::CongestionLevel::kHigh, 0.5);
  const double fast = model.predict_quantile(80.0, node::CongestionLevel::kHigh, 0.5);
  ASSERT_GT(slow, 0.0);
  EXPECT_GT(slow, mid);
  EXPECT_GT(mid, fast);
  EXPECT_NEAR(fast, 1.0, 0.5);
}

TEST(DelayModel, FeeForTargetInvertsPrediction) {
  SyntheticFixture f;
  const auto model = DelayModel::fit(f.txs, f.delays, f.snapshots, 1'000'000);
  const double fee = model.fee_for_target(2.0, node::CongestionLevel::kHigh, 0.9);
  ASSERT_GT(fee, 0.0);
  const double check = model.predict_quantile(fee, node::CongestionLevel::kHigh, 0.9);
  EXPECT_LE(check, 2.0);
  // A clearly cheaper fee must miss the target.
  EXPECT_GT(model.predict_quantile(fee / 8.0, node::CongestionLevel::kHigh, 0.9),
            2.0);
}

TEST(DelayModel, UnseenLevelReturnsNegative) {
  SyntheticFixture f;  // only kHigh has data
  const auto model = DelayModel::fit(f.txs, f.delays, f.snapshots, 1'000'000);
  EXPECT_LT(model.predict_quantile(10.0, node::CongestionLevel::kNone, 0.5), 0.0);
  EXPECT_LT(model.fee_for_target(2.0, node::CongestionLevel::kNone, 0.5), 0.0);
}

TEST(DelayModel, EmptyFitIsHarmless) {
  node::SnapshotSeries snapshots;
  const auto model = DelayModel::fit({}, {}, snapshots, 1'000'000);
  EXPECT_EQ(model.sample_count(), 0u);
  EXPECT_LT(model.predict_quantile(5.0, node::CongestionLevel::kNone, 0.5), 0.0);
}

TEST(DelayModel, SparseBinsBorrowNeighbours) {
  // One lonely observation: any nearby query should still answer.
  node::SnapshotSeries snapshots;
  snapshots.record({1, 1, 0});
  std::vector<SeenTx> txs(1);
  txs[0].first_seen = 5;
  txs[0].fee_rate = 10.0;
  const std::vector<double> delays = {4.0};
  DelayModel::Options options;
  options.min_samples = 1;
  const auto model = DelayModel::fit(txs, delays, snapshots, 1'000'000, options);
  EXPECT_NEAR(model.predict_quantile(9.0, node::CongestionLevel::kNone, 0.5), 4.0,
              1e-9);
  EXPECT_NEAR(model.predict_quantile(300.0, node::CongestionLevel::kNone, 0.5), 4.0,
              1e-9);
}

TEST(DelayModel, EndToEndOnSimulatedData) {
  const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kA, 21, 0.15);
  const auto dataset =
      AuditDataset::build(world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto seen = collect_seen_txs(
      dataset, [&](const btc::Txid& id) { return world.observer.first_seen(id); });
  const auto delays = commit_delays_blocks(dataset, seen);
  const auto model = DelayModel::fit(seen, delays, world.observer.snapshots(),
                                     world.config.max_block_vsize);
  ASSERT_GT(model.sample_count(), 1000u);
  // Paying far more must not predict (meaningfully) slower commits.
  const double cheap =
      model.predict_quantile(1.5, node::CongestionLevel::kHigh, 0.9);
  const double rich =
      model.predict_quantile(200.0, node::CongestionLevel::kHigh, 0.9);
  ASSERT_GT(cheap, 0.0);
  ASSERT_GT(rich, 0.0);
  EXPECT_LE(rich, cheap);
}

}  // namespace
}  // namespace cn::core
