// Detector calibration against simulator ground truth.
//
// The audit toolkit's detectors (differential prioritization / SPPE,
// the Norm-III below-floor screen, pairwise selection violations) are
// validated here the only way a detector can be: against worlds where
// the true misbehaviour rates are KNOWN because we planted them.
//
// Two worlds share one config skeleton (4 pools, equal shares, a
// congestion burst so queue-jumping is observable):
//
//   planted — "Selfish" boosts its own-wallet transactions and courtesy-
//             boosts random low-fee strangers; "Tolerant" lifts the
//             1 sat/vB floor on 1 in 16 heights (LowFeeTolerancePolicy),
//             so its below-floor block rate has a known target of 1/16.
//             "Honest1"/"Honest2" follow the norms.
//   honest  — identical, with every plant removed. This world measures
//             the false-positive floor: every detector must stay quiet.
//
// Tolerances are deliberately statistical (binomial noise over a few
// hundred blocks), and cross-world assertions are relative where an
// absolute rate would be brittle.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "btc/coinbase_tags.hpp"
#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "core/neutrality.hpp"
#include "core/pair_violations.hpp"
#include "core/prio_test.hpp"
#include "core/wallet_inference.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"

namespace cn {
namespace {

constexpr double kAlpha = 0.001;
constexpr std::uint64_t kLowFeePeriod = 16;  ///< LowFeeTolerancePolicy default

sim::EngineConfig calibration_config(std::uint64_t seed, bool plant) {
  sim::EngineConfig config;
  config.seed = seed;
  config.duration = 4 * kDay;  // ~570 blocks

  sim::PoolSpec selfish;
  selfish.name = "Selfish";
  selfish.hash_share = 25.0;
  selfish.self_tx_weight = 3.0;
  if (plant) {
    selfish.selfish = true;
    selfish.courtesy_boost_per_block = 0.4;
  }

  sim::PoolSpec tolerant;
  tolerant.name = "Tolerant";
  tolerant.hash_share = 25.0;
  tolerant.tolerates_low_fee = plant;

  sim::PoolSpec honest1;
  honest1.name = "Honest1";
  honest1.hash_share = 25.0;

  sim::PoolSpec honest2;
  honest2.name = "Honest2";
  honest2.hash_share = 25.0;

  config.pools = {selfish, tolerant, honest1, honest2};

  // Enough below-floor supply that a lifted floor has something to admit,
  // and a mid-run congestion burst so boosted transactions demonstrably
  // jump a queue of better-paying strangers.
  config.workload.below_floor_fraction = 0.004;
  config.workload.self_interest_per_block = 0.6;
  config.workload.bursts.push_back({2 * kDay, 6 * kHour, 3.0});
  return config;
}

btc::CoinbaseTagRegistry calibration_registry() {
  btc::CoinbaseTagRegistry registry;
  for (const char* name : {"Selfish", "Tolerant", "Honest1", "Honest2"}) {
    registry.add(name, btc::conventional_marker(name));
  }
  return registry;
}

/// Both worlds are expensive to simulate; build each once for the suite.
class DetectorCalibration : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ = new btc::CoinbaseTagRegistry(calibration_registry());
    planted_ = new sim::SimResult(sim::Engine(calibration_config(991, true)).run());
    honest_ = new sim::SimResult(sim::Engine(calibration_config(991, false)).run());
    planted_attr_ = new core::PoolAttribution(planted_->chain, *registry_);
    honest_attr_ = new core::PoolAttribution(honest_->chain, *registry_);
    planted_ds_ = new core::AuditDataset(
        core::AuditDataset::build(planted_->chain, *registry_));
    honest_ds_ = new core::AuditDataset(
        core::AuditDataset::build(honest_->chain, *registry_));
  }
  static void TearDownTestSuite() {
    delete honest_ds_;
    delete planted_ds_;
    honest_ds_ = nullptr;
    planted_ds_ = nullptr;
    delete honest_attr_;
    delete planted_attr_;
    delete honest_;
    delete planted_;
    delete registry_;
    honest_attr_ = nullptr;
    planted_attr_ = nullptr;
    honest_ = nullptr;
    planted_ = nullptr;
    registry_ = nullptr;
  }

  static std::vector<core::SeenTx> seen_txs(const sim::SimResult& world,
                                            const core::AuditDataset& dataset) {
    return core::collect_seen_txs(dataset, [&](const btc::Txid& id) {
      return world.observer.first_seen(id);
    });
  }

  /// @p pool's own transactions and the self-interest test on them.
  static core::PrioTestResult self_interest_test(const core::AuditDataset& dataset,
                                                 const char* pool,
                                                 std::size_t* own_count) {
    const core::PoolId id = dataset.pool_id(pool);
    const auto own = dataset.self_interest_txs(id);
    *own_count = own.size();
    return core::test_differential_prioritization(dataset, id, own);
  }

  static std::vector<core::NeutralityReport> scorecards(
      const core::AuditDataset& dataset) {
    util::ThreadPool workers(1);
    return core::neutrality_reports(dataset, {}, workers);
  }

  static const core::NeutralityReport* report_of(
      const std::vector<core::NeutralityReport>& reports,
      const std::string& pool) {
    for (const auto& r : reports) {
      if (r.pool == pool) return &r;
    }
    return nullptr;
  }

  static sim::SimResult* planted_;
  static sim::SimResult* honest_;
  static btc::CoinbaseTagRegistry* registry_;
  static core::PoolAttribution* planted_attr_;
  static core::PoolAttribution* honest_attr_;
  static core::AuditDataset* planted_ds_;
  static core::AuditDataset* honest_ds_;
};

sim::SimResult* DetectorCalibration::planted_ = nullptr;
sim::SimResult* DetectorCalibration::honest_ = nullptr;
btc::CoinbaseTagRegistry* DetectorCalibration::registry_ = nullptr;
core::PoolAttribution* DetectorCalibration::planted_attr_ = nullptr;
core::PoolAttribution* DetectorCalibration::honest_attr_ = nullptr;
core::AuditDataset* DetectorCalibration::planted_ds_ = nullptr;
core::AuditDataset* DetectorCalibration::honest_ds_ = nullptr;

TEST_F(DetectorCalibration, WorldsAreComparable) {
  // Sanity on the substrate itself before trusting any calibration
  // number: both worlds mined a few hundred blocks and every pool is
  // attributable (all four write conventional markers).
  for (const sim::SimResult* world : {planted_, honest_}) {
    EXPECT_GT(world->chain.size(), 300u);
    EXPECT_GT(world->chain.total_tx_count(), 20'000u);
  }
  for (const auto* attr : {planted_attr_, honest_attr_}) {
    EXPECT_EQ(attr->unidentified_blocks(), 0u);
    for (const char* pool : {"Selfish", "Tolerant", "Honest1", "Honest2"}) {
      EXPECT_NEAR(attr->hash_share(pool), 0.25, 0.08) << pool;
    }
  }
}

TEST_F(DetectorCalibration, SelfDealingSppeSignRecovered) {
  // The planted self-dealer: strongly positive SPPE at a decisive p.
  std::size_t own = 0;
  const auto test = self_interest_test(*planted_ds_, "Selfish", &own);
  ASSERT_GT(own, 30u);
  EXPECT_LT(test.p_accelerate, kAlpha);
  EXPECT_GT(test.sppe, 50.0);

  // Same pool, same policy knobs minus the plant: sign gone, p calm.
  const auto control = self_interest_test(*honest_ds_, "Selfish", &own);
  ASSERT_GT(own, 30u);
  EXPECT_GT(control.p_accelerate, kAlpha);
  EXPECT_LT(control.sppe, 25.0);
}

TEST_F(DetectorCalibration, FalsePositiveFloorOnHonestPools) {
  // Norm-followers must not be flagged — in either world.
  struct Case {
    const core::AuditDataset* dataset;
    std::vector<const char*> pools;
  };
  const Case cases[] = {
      {planted_ds_, {"Honest1", "Honest2", "Tolerant"}},
      {honest_ds_, {"Selfish", "Tolerant", "Honest1", "Honest2"}},
  };
  for (const Case& c : cases) {
    for (const char* pool : c.pools) {
      std::size_t own = 0;
      const auto test = self_interest_test(*c.dataset, pool, &own);
      if (own < 10) continue;
      EXPECT_GT(test.p_accelerate, kAlpha) << pool << " falsely flagged";
    }
  }
}

TEST_F(DetectorCalibration, NormThreeScreenBoundsPlantedFloorRate) {
  // LowFeeTolerancePolicy lifts the floor on 1 height in kLowFeePeriod,
  // so 1/16 is a hard UPPER bound on the below-floor block rate: a block
  // mined with the floor in place cannot contain a non-CPFP sub-floor
  // transaction at all. The measured rate sits well below that bound —
  // sub-floor offers are the first the mempool evicts and the last the
  // template admits, so a lifted block only includes one when both the
  // backlog and the block have room — but it must be strictly positive
  // and cleanly separated from the norm-followers' zero.
  const auto reports = scorecards(*planted_ds_);
  const auto* tolerant = report_of(reports, "Tolerant");
  ASSERT_NE(tolerant, nullptr);
  const double planted_rate = 1.0 / static_cast<double>(kLowFeePeriod);
  EXPECT_GT(tolerant->below_floor_block_rate, 0.003);
  EXPECT_LT(tolerant->below_floor_block_rate, planted_rate + 0.02);

  // Norm-followers sit at (essentially) zero — the CPFP-rescued-parent
  // exemption keeps organic package inclusion off this screen.
  for (const char* pool : {"Honest1", "Honest2"}) {
    const auto* r = report_of(reports, pool);
    ASSERT_NE(r, nullptr) << pool;
    EXPECT_LT(r->below_floor_block_rate, 0.015) << pool;
  }

  // And with the plant removed the rate collapses.
  const auto honest_reports = scorecards(*honest_ds_);
  const auto* control = report_of(honest_reports, "Tolerant");
  ASSERT_NE(control, nullptr);
  EXPECT_LT(control->below_floor_block_rate, 0.015);
}

TEST_F(DetectorCalibration, PairViolationsElevatedByPlantedBoosts) {
  // Boosting (self-interest + courtesy) commits later-arriving,
  // lower-paying transactions over earlier better-paying ones — exactly
  // the pairs Fig 6 counts. The planted world must show materially more
  // of them than the honest control over the same workload.
  const auto planted_seen = seen_txs(*planted_, *planted_ds_);
  const auto honest_seen = seen_txs(*honest_, *honest_ds_);
  ASSERT_GT(planted_seen.size(), 10'000u);
  ASSERT_GT(honest_seen.size(), 10'000u);

  const auto planted_stats =
      core::count_pair_violations(planted_seen, 0, /*exclude_cpfp=*/true);
  const auto honest_stats =
      core::count_pair_violations(honest_seen, 0, /*exclude_cpfp=*/true);
  ASSERT_GT(planted_stats.predicted_pairs, 1000u);
  ASSERT_GT(honest_stats.predicted_pairs, 1000u);
  EXPECT_GT(planted_stats.fraction(), honest_stats.fraction() * 1.5);
  // The honest world's residual violations (propagation races) stay low.
  EXPECT_LT(honest_stats.fraction(), 0.20);
}

TEST_F(DetectorCalibration, ViolationsAttributeToTheBoostingPool) {
  // violations_by_block charges each violating pair to the block that
  // committed the queue-jumper; folded by pool, the planted booster must
  // out-violate the honest pools per block mined.
  const auto by_block = core::violations_by_block(seen_txs(*planted_, *planted_ds_), 0,
                                                  /*exclude_cpfp=*/true);
  std::unordered_map<std::string, double> per_pool;
  for (const auto& [height, count] : by_block) {
    const auto pool = planted_attr_->pool_of(height);
    if (pool.has_value()) per_pool[*pool] += static_cast<double>(count);
  }
  const auto rate = [&](const std::string& pool) {
    const auto blocks = planted_attr_->blocks_of(pool);
    return blocks == 0 ? 0.0 : per_pool[pool] / static_cast<double>(blocks);
  };
  const double selfish_rate = rate("Selfish");
  const double honest_rate =
      std::max(rate("Honest1"), rate("Honest2"));
  EXPECT_GT(selfish_rate, honest_rate * 1.5);
}

TEST_F(DetectorCalibration, NeutralityScorecardSeparatesWorlds) {
  // Composite check: in the planted world the misbehaving pools score
  // visibly below the norm-followers; in the honest world everyone is
  // high and close together.
  const auto planted_reports = scorecards(*planted_ds_);
  const auto* selfish = report_of(planted_reports, "Selfish");
  const auto* honest1 = report_of(planted_reports, "Honest1");
  ASSERT_NE(selfish, nullptr);
  ASSERT_NE(honest1, nullptr);
  EXPECT_TRUE(selfish->self_dealing_flagged);
  EXPECT_LT(selfish->score, honest1->score - 10.0);

  const auto honest_reports = scorecards(*honest_ds_);
  for (const auto& r : honest_reports) {
    EXPECT_FALSE(r.self_dealing_flagged) << r.pool;
    EXPECT_GT(r.score, 85.0) << r.pool;
  }
}

}  // namespace
}  // namespace cn
