// Integration tests: simulate whole networks with planted behaviours and
// verify the audit toolkit (which sees only what a real auditor sees —
// the chain, coinbase markers, and the observer's Mempool view) both
// *detects* every planted misbehaviour and *stays silent* on honest
// pools.
#include <gtest/gtest.h>

#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "core/darkfee.hpp"
#include "core/pair_violations.hpp"
#include "core/ppe.hpp"
#include "core/prio_test.hpp"
#include "core/sppe.hpp"
#include "core/wallet_inference.hpp"
#include "sim/dataset.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"

namespace cn {
namespace {

/// One shared mid-size data-set-C world for the whole suite (building it
/// once keeps the suite fast).
class AuditWorld : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new sim::SimResult(sim::make_dataset(sim::DatasetKind::kC, 1234, 0.8));
    registry_ = new btc::CoinbaseTagRegistry(btc::CoinbaseTagRegistry::paper_registry());
    attribution_ = new core::PoolAttribution(world_->chain, *registry_);
    util::ThreadPool workers;
    dataset_ = new core::AuditDataset(
        core::AuditDataset::build(world_->chain, *attribution_, workers));
  }
  static void TearDownTestSuite() {
    delete dataset_;
    dataset_ = nullptr;
    delete attribution_;
    delete registry_;
    delete world_;
    attribution_ = nullptr;
    registry_ = nullptr;
    world_ = nullptr;
  }

  static sim::SimResult* world_;
  static btc::CoinbaseTagRegistry* registry_;
  static core::PoolAttribution* attribution_;
  static core::AuditDataset* dataset_;

  /// The self-interest test of @p owner's transactions against @p miner.
  static core::PrioTestResult self_interest_test(const std::string& owner,
                                                 const std::string& miner) {
    const core::PoolId miner_id = dataset_->pool_id(miner);
    EXPECT_NE(miner_id, core::kNoPoolId) << miner;
    return core::test_differential_prioritization(
        *dataset_, miner_id, dataset_->self_interest_txs(dataset_->pool_id(owner)));
  }
};

sim::SimResult* AuditWorld::world_ = nullptr;
btc::CoinbaseTagRegistry* AuditWorld::registry_ = nullptr;
core::PoolAttribution* AuditWorld::attribution_ = nullptr;
core::AuditDataset* AuditWorld::dataset_ = nullptr;

TEST_F(AuditWorld, AttributionMatchesConfiguredShares) {
  // Inferred hash shares should be near the configured ones.
  for (const auto& spec : world_->config.pools) {
    if (spec.anonymous) continue;
    const double inferred = attribution_->hash_share(spec.name);
    EXPECT_NEAR(inferred, spec.hash_share / 100.0, 0.05) << spec.name;
  }
  // ~1.3% unidentified.
  const double unknown = static_cast<double>(attribution_->unidentified_blocks()) /
                         static_cast<double>(attribution_->total_blocks());
  EXPECT_GT(unknown, 0.001);
  EXPECT_LT(unknown, 0.05);
}

TEST_F(AuditWorld, InferredWalletsAreTrueSubsets) {
  // Every inferred reward wallet must be one of the pool's real wallets.
  for (const auto& [pool, wallets] : world_->pool_wallets) {
    const auto& inferred = attribution_->wallets_of(pool);
    for (const auto& addr : inferred) {
      EXPECT_NE(std::find(wallets.begin(), wallets.end(), addr), wallets.end())
          << pool;
    }
  }
}

TEST_F(AuditWorld, PpeIsSmallUnderGbt) {
  const auto ppe = core::chain_ppe(*dataset_);
  ASSERT_GT(ppe.size(), 100u);
  const auto summary = stats::summarize(ppe);
  // Paper: mean 2.65%, 80% of blocks < 4.03%.
  EXPECT_LT(summary.mean, 8.0);
  EXPECT_GT(summary.mean, 0.1);  // not trivially zero either
}

TEST_F(AuditWorld, SelfishPoolsDetected) {
  for (const char* pool : {"F2Pool", "ViaBTC", "SlushPool"}) {
    ASSERT_GT(dataset_->self_interest_txs(dataset_->pool_id(pool)).size(), 10u) << pool;
    const auto result = self_interest_test(pool, pool);
    EXPECT_LT(result.p_accelerate, 0.001) << pool;
    EXPECT_GT(result.sppe, 50.0) << pool;
  }
}

TEST_F(AuditWorld, HonestPoolsNotFlagged) {
  for (const char* pool : {"Poolin", "AntPool", "Huobi", "Okex", "Binance Pool"}) {
    if (dataset_->self_interest_txs(dataset_->pool_id(pool)).size() < 10) {
      continue;  // not enough evidence either way
    }
    const auto result = self_interest_test(pool, pool);
    EXPECT_GT(result.p_accelerate, 0.001) << pool << " falsely flagged";
  }
}

TEST_F(AuditWorld, CollusionDetected) {
  // ViaBTC accelerates 1THash&58Coin's and SlushPool's transactions.
  for (const char* partner : {"1THash&58Coin", "SlushPool"}) {
    ASSERT_GT(dataset_->self_interest_txs(dataset_->pool_id(partner)).size(), 5u)
        << partner;
    const auto result = self_interest_test(partner, "ViaBTC");
    EXPECT_LT(result.p_accelerate, 0.01) << "ViaBTC + " << partner;
  }
}

TEST_F(AuditWorld, ScamTransactionsNotDifferentiallyTreated) {
  ASSERT_FALSE(world_->scam_address.is_null());
  const auto scam_txs = dataset_->txs_paying_to(world_->scam_address);
  ASSERT_GT(scam_txs.size(), 10u);
  // No pool should show a significant effect in either direction.
  for (const auto& spec : world_->config.pools) {
    if (spec.anonymous || spec.hash_share < 5.0) continue;
    const core::PoolId pool = dataset_->pool_id(spec.name);
    ASSERT_NE(pool, core::kNoPoolId) << spec.name;
    const auto result =
        core::test_differential_prioritization(*dataset_, pool, scam_txs);
    EXPECT_GT(result.p_accelerate, 0.001) << spec.name;
    EXPECT_GT(result.p_decelerate, 0.001) << spec.name;
  }
}

TEST_F(AuditWorld, DarkFeeDetectorFindsAcceleratedTxs) {
  const auto is_accel = [&](const btc::Txid& id) {
    return world_->acceleration.is_accelerated(id);
  };
  const auto buckets =
      core::darkfee_buckets(*dataset_, dataset_->pool_id("BTC.com"), is_accel,
                            {100.0, 99.0, 90.0, 50.0, 1.0});
  ASSERT_EQ(buckets.size(), 5u);
  // The >=99 bucket is non-empty and dominated by accelerated txs.
  EXPECT_GT(buckets[1].tx_count, 0u);
  EXPECT_GT(buckets[1].accelerated_fraction(), 0.5);
  // Purity falls as the threshold loosens (Table 4 shape).
  EXPECT_LE(buckets[3].accelerated_fraction(), buckets[1].accelerated_fraction());
  EXPECT_LE(buckets[4].accelerated_fraction(), buckets[3].accelerated_fraction());
  EXPECT_LT(buckets[4].accelerated_fraction(), 0.2);
}

TEST_F(AuditWorld, DarkFeeRandomSampleControlClean) {
  const auto is_accel = [&](const btc::Txid& id) {
    return world_->acceleration.is_accelerated(id);
  };
  const auto hits = core::accelerated_in_random_sample(
      *dataset_, dataset_->pool_id("BTC.com"), is_accel, 1000, 99);
  // Paper: 0 of 1000; allow a whisker of noise.
  EXPECT_LE(hits, 20u);
}

TEST_F(AuditWorld, PairViolationsSmallAndEpsilonShrinksThem) {
  const auto first_seen = [&](const btc::Txid& id) {
    return world_->observer.first_seen(id);
  };
  const auto seen = core::collect_seen_txs(*dataset_, first_seen);
  ASSERT_GT(seen.size(), 10'000u);

  // A mid-run snapshot.
  const SimTime t = world_->config.duration / 2;
  const auto pending = core::pending_at(seen, *dataset_, t);
  ASSERT_GT(pending.size(), 50u);

  const auto eps0 = core::count_pair_violations(pending, 0, false);
  const auto eps10m = core::count_pair_violations(pending, 10 * kMinute, false);
  ASSERT_GT(eps0.predicted_pairs, 0u);
  EXPECT_GT(eps0.fraction(), 0.0);      // violations exist
  EXPECT_LT(eps0.fraction(), 0.5);      // but are the minority
  EXPECT_LE(eps10m.fraction(), eps0.fraction() + 0.02);  // eps filters them

  const auto no_cpfp = core::count_pair_violations(pending, 0, true);
  EXPECT_LE(no_cpfp.fraction(), eps0.fraction() + 0.02);
}

TEST(AuditCensorship, DecelerationTestCatchesPlantedCensor) {
  // Ablation: plant a censoring pool (refuses scam-wallet txs) and verify
  // the deceleration test flags it — the paper's §5.3 hypothesis, which
  // real 2020 pools did not exhibit.
  auto config = sim::dataset_config(sim::DatasetKind::kC, 77, 0.25);
  const btc::Address scam = btc::Address::derive("scam/twitter-wallet");
  // Make the scam window cover the whole run so the censor has c-blocks.
  config.workload.scam->start = 0;
  config.workload.scam->end = config.duration;
  config.workload.scam->txs_per_hour = 6.0;
  for (auto& spec : config.pools) {
    if (spec.name == "AntPool") spec.censored_wallets = {scam};
  }
  sim::SimResult world = sim::Engine(std::move(config)).run();

  const auto dataset = core::AuditDataset::build(
      world.chain, btc::CoinbaseTagRegistry::paper_registry());
  const auto scam_txs = dataset.txs_paying_to(world.scam_address);
  ASSERT_GT(scam_txs.size(), 50u);

  const auto censor = core::test_differential_prioritization(
      dataset, dataset.pool_id("AntPool"), scam_txs);
  EXPECT_LT(censor.p_decelerate, 0.001);
  EXPECT_EQ(censor.x, 0u);  // a censor never mines them

  // An honest pool in the same world is not flagged.
  const auto honest = core::test_differential_prioritization(
      dataset, dataset.pool_id("Poolin"), scam_txs);
  EXPECT_GT(honest.p_decelerate, 0.001);
}

TEST(AuditLegacyEra, LegacyBuilderDegradesPpe) {
  // Fig 1's contrast: pre-April-2016 coin-age ordering produces large
  // PPE; GBT produces small PPE.
  auto legacy_config = sim::dataset_config(sim::DatasetKind::kA, 5, 0.15);
  sim::set_all_builders(legacy_config, sim::BuilderKind::kLegacyPriority);
  const sim::SimResult legacy = sim::Engine(std::move(legacy_config)).run();

  auto gbt_config = sim::dataset_config(sim::DatasetKind::kA, 5, 0.15);
  const sim::SimResult gbt = sim::Engine(std::move(gbt_config)).run();

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const auto legacy_ppe =
      stats::summarize(core::chain_ppe(core::AuditDataset::build(legacy.chain, registry)));
  const auto gbt_ppe =
      stats::summarize(core::chain_ppe(core::AuditDataset::build(gbt.chain, registry)));
  EXPECT_GT(legacy_ppe.mean, 3.0 * gbt_ppe.mean);
  EXPECT_GT(legacy_ppe.mean, 15.0);
}

}  // namespace
}  // namespace cn
