// Detector power against the evasion-aware adversary zoo.
//
// The calibration suite (test_detector_calibration.cpp) proves the
// detectors convict a FULLY selfish plant and acquit honest pools. This
// suite sweeps the space in between: the "Selfish" pool throttles its
// own-wallet boosts to a retained intensity theta in [0,1]
// (EvasiveSelfInterestPolicy), and the binomial test's p-value must
// degrade monotonically as the evasion budget (1 - theta) grows —
// decisive at theta=1, calm at theta=0 and on the honest twin.
//
// The theta endpoints are pinned at the strictest level available,
// exported CNB1 bytes:
//   * theta=0 is BYTE-IDENTICAL to the honest world (the policy attaches
//     but must consume no randomness and mutate nothing);
//   * theta=1 is BYTE-IDENTICAL to the plain SelfInterestPolicy world —
//     full retention IS the non-evasive adversary.
//
// Also covered here: the block-withholding detector (missing-mempool
// overlap, core/withholding.hpp) flagging a WithholdingPolicy plant and
// staying quiet on prompt publishers; the audit pipeline's withholding
// stage, rendered only when a first-seen log is supplied; and the
// fee-only (zero-subsidy) EngineConfig knob.
//
// CN_SMOKE=1 (the ASan CI leg) halves the world duration; every
// assertion is deterministic for the pinned seed in both modes.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "btc/coinbase_tags.hpp"
#include "btc/rewards.hpp"
#include "core/audit_pipeline.hpp"
#include "core/prio_test.hpp"
#include "core/wallet_inference.hpp"
#include "core/withholding.hpp"
#include "io/cnb.hpp"
#include "sim/engine.hpp"

namespace cn {
namespace {

constexpr double kAlpha = 0.001;
constexpr std::uint64_t kSeed = 991;

bool smoke_mode() {
  const char* s = std::getenv("CN_SMOKE");
  return s != nullptr && *s != '\0' && std::string(s) != "0";
}

enum class Plant {
  kNone,     ///< honest control
  kSelfish,  ///< plain SelfInterestPolicy
  kEvasive,  ///< EvasiveSelfInterestPolicy at a given theta
};

/// One config skeleton for every world in the suite: 4 equal pools, the
/// same workload (identical self_tx_weight regardless of plant, so the
/// issued transactions match across worlds), a mid-run congestion burst.
/// Only the "Selfish" pool's policy attachment varies.
sim::EngineConfig power_config(Plant plant, double theta = 0.0,
                               double withhold_delay_s = 0.0) {
  sim::EngineConfig config;
  config.seed = kSeed;
  config.duration = smoke_mode() ? kDay : 2 * kDay;

  sim::PoolSpec selfish;
  selfish.name = "Selfish";
  selfish.hash_share = 25.0;
  selfish.self_tx_weight = 3.0;
  if (plant == Plant::kSelfish) selfish.selfish = true;
  if (plant == Plant::kEvasive) selfish.evasion_theta = theta;
  selfish.withhold_delay_s = withhold_delay_s;

  sim::PoolSpec honest1;
  honest1.name = "Honest1";
  honest1.hash_share = 25.0;
  sim::PoolSpec honest2 = honest1;
  honest2.name = "Honest2";
  sim::PoolSpec honest3 = honest1;
  honest3.name = "Honest3";

  config.pools = {selfish, honest1, honest2, honest3};
  config.workload.self_interest_per_block = 0.6;
  config.workload.bursts.push_back(
      {config.duration / 2, 6 * kHour, 3.0});
  return config;
}

btc::CoinbaseTagRegistry power_registry() {
  btc::CoinbaseTagRegistry registry;
  for (const char* name : {"Selfish", "Honest1", "Honest2", "Honest3"}) {
    registry.add(name, btc::conventional_marker(name));
  }
  return registry;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// The world reduced to its strongest equality witness: the full CNB1
/// export (chain, snapshots, first-seen log) as bytes.
std::string cnb_bytes(const sim::SimResult& world, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/cn_power_" + tag + ".cnb";
  io::CnbWriteOptions options;
  options.snapshots = &world.observer.snapshots();
  options.first_seen = &world.observer.first_seen_map();
  std::string error;
  EXPECT_TRUE(io::write_cnb(world.chain, path, options, &error)) << error;
  return slurp(path);
}

core::PrioTestResult selfish_verdict(const sim::SimResult& world,
                                     const btc::CoinbaseTagRegistry& registry) {
  const auto dataset = core::AuditDataset::build(world.chain, registry, 1);
  const core::PoolId selfish = dataset.pool_id("Selfish");
  return core::test_differential_prioritization(dataset, selfish,
                                                dataset.self_interest_txs(selfish));
}

const core::WithholdingReport* report_of(
    const std::vector<core::WithholdingReport>& reports,
    const std::string& pool) {
  for (const auto& r : reports) {
    if (r.pool == pool) return &r;
  }
  return nullptr;
}

/// Every world the suite needs, simulated once.
class DetectorPower : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    registry_ = new btc::CoinbaseTagRegistry(power_registry());
    honest_ = new sim::SimResult(sim::Engine(power_config(Plant::kNone)).run());
    theta0_ = new sim::SimResult(
        sim::Engine(power_config(Plant::kEvasive, 0.0)).run());
    theta_half_ = new sim::SimResult(
        sim::Engine(power_config(Plant::kEvasive, 0.5)).run());
    theta_full_ = new sim::SimResult(
        sim::Engine(power_config(Plant::kEvasive, 1.0)).run());
    selfish_ = new sim::SimResult(
        sim::Engine(power_config(Plant::kSelfish)).run());
    withheld_ = new sim::SimResult(
        sim::Engine(power_config(Plant::kSelfish, 0.0, 120.0)).run());
  }
  static void TearDownTestSuite() {
    delete withheld_;
    delete selfish_;
    delete theta_full_;
    delete theta_half_;
    delete theta0_;
    delete honest_;
    delete registry_;
    withheld_ = selfish_ = theta_full_ = theta_half_ = theta0_ = honest_ =
        nullptr;
    registry_ = nullptr;
  }

  static btc::CoinbaseTagRegistry* registry_;
  static sim::SimResult* honest_;
  static sim::SimResult* theta0_;
  static sim::SimResult* theta_half_;
  static sim::SimResult* theta_full_;
  static sim::SimResult* selfish_;
  static sim::SimResult* withheld_;
};

btc::CoinbaseTagRegistry* DetectorPower::registry_ = nullptr;
sim::SimResult* DetectorPower::honest_ = nullptr;
sim::SimResult* DetectorPower::theta0_ = nullptr;
sim::SimResult* DetectorPower::theta_half_ = nullptr;
sim::SimResult* DetectorPower::theta_full_ = nullptr;
sim::SimResult* DetectorPower::selfish_ = nullptr;
sim::SimResult* DetectorPower::withheld_ = nullptr;

TEST_F(DetectorPower, WorldsAreComparable) {
  for (const sim::SimResult* world :
       {honest_, theta0_, theta_half_, theta_full_, selfish_, withheld_}) {
    EXPECT_GT(world->chain.size(), smoke_mode() ? 70u : 150u);
    EXPECT_GT(world->chain.total_tx_count(), 10'000u);
  }
}

TEST_F(DetectorPower, ZeroEvasionIsByteIdenticalToHonest) {
  // theta=0 attaches the policy but must change NOTHING — the exact
  // era(kGbt)/aging(0) collapse contract, held at the byte level.
  EXPECT_TRUE(cnb_bytes(*honest_, "honest") == cnb_bytes(*theta0_, "theta0"))
      << "theta=0 world diverged from the honest baseline";
}

TEST_F(DetectorPower, FullRetentionIsByteIdenticalToPlainSelfish) {
  // theta=1 must reduce to SelfInterestPolicy exactly: every own-wallet
  // transaction boosted, no randomness consumed.
  EXPECT_TRUE(
      cnb_bytes(*theta_full_, "theta1") == cnb_bytes(*selfish_, "selfish"))
      << "theta=1 world diverged from the plain selfish world";
}

TEST_F(DetectorPower, PowerDegradesMonotonicallyWithEvasionBudget) {
  const auto honest = selfish_verdict(*honest_, *registry_);
  const auto t0 = selfish_verdict(*theta0_, *registry_);
  const auto t50 = selfish_verdict(*theta_half_, *registry_);
  const auto t100 = selfish_verdict(*theta_full_, *registry_);

  // Endpoints: decisive at full retention, calm at full evasion.
  EXPECT_LT(t100.p_accelerate, kAlpha);
  EXPECT_GT(t100.sppe, 50.0);
  EXPECT_GT(t0.p_accelerate, kAlpha);
  EXPECT_GT(honest.p_accelerate, kAlpha);

  // Monotone evidence: more retained selfishness, smaller p. (The sim
  // is deterministic for the pinned seed, so these are goldens, not
  // statistical hopes.)
  EXPECT_LE(t100.p_accelerate, t50.p_accelerate);
  EXPECT_LE(t50.p_accelerate, t0.p_accelerate);
}

TEST_F(DetectorPower, WithholdingDetectorSeparatesWorlds) {
  const auto flagged_reports = core::withholding_reports(
      core::AuditDataset::build(withheld_->chain, *registry_),
      withheld_->observer.first_seen_map());
  const auto* withholder = report_of(flagged_reports, "Selfish");
  ASSERT_NE(withholder, nullptr);
  EXPECT_GT(withholder->blocks, 0u);
  EXPECT_GT(withholder->flagged_rate, 0.15)
      << "withholding plant not flagged";

  // Prompt publishers in the same world stay (essentially) clean...
  for (const char* pool : {"Honest1", "Honest2", "Honest3"}) {
    const auto* r = report_of(flagged_reports, pool);
    ASSERT_NE(r, nullptr) << pool;
    EXPECT_LT(r->flagged_rate, 0.05) << pool << " falsely flagged";
  }

  // ...and with the plant removed (same policies minus the delay) the
  // detector is quiet on everyone.
  const auto clean_reports = core::withholding_reports(
      core::AuditDataset::build(selfish_->chain, *registry_),
      selfish_->observer.first_seen_map());
  for (const auto& r : clean_reports) {
    EXPECT_LT(r.flagged_rate, 0.05) << r.pool << " falsely flagged";
  }
}

std::string rendered(const core::AuditReport& report) {
  std::FILE* tmp = std::tmpfile();
  core::print_audit_report(report, tmp);
  const long size = std::ftell(tmp);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(tmp);
  const std::size_t read = std::fread(out.data(), 1, out.size(), tmp);
  std::fclose(tmp);
  out.resize(read);
  return out;
}

TEST_F(DetectorPower, WithholdingAuditStageNeedsAFirstSeenLog) {
  // The "withholding" stage through the full pipeline: present and
  // populated when a first-seen log is supplied, absent without it.
  core::AuditOptions options;
  options.first_seen = &withheld_->observer.first_seen_map();
  const auto with_log =
      core::run_full_audit(withheld_->chain, *registry_, nullptr, options);
  EXPECT_TRUE(with_log.has_first_seen);
  ASSERT_FALSE(with_log.withholding.empty());
  EXPECT_NE(rendered(with_log).find("block withholding"), std::string::npos);

  core::AuditOptions without;
  const auto quiet =
      core::run_full_audit(withheld_->chain, *registry_, nullptr, without);
  EXPECT_FALSE(quiet.has_first_seen);
  EXPECT_TRUE(quiet.withholding.empty());
  EXPECT_EQ(rendered(quiet).find("block withholding"), std::string::npos)
      << "withholding section rendered without a first-seen log";
}

TEST(FeeOnlyEngine, ZeroSubsidyCoinbasePaysPureFees) {
  // The fee-only regime (BitcoinF-style analyses): every coinbase reward
  // is exactly the block's fees, no subsidy. The control world at the
  // same heights collects a strictly positive subsidy on top.
  sim::EngineConfig config = power_config(Plant::kNone);
  config.duration = kDay / 2;
  config.fee_only = true;
  const sim::SimResult world = sim::Engine(config).run();
  ASSERT_GT(world.chain.size(), 20u);
  for (const btc::Block& block : world.chain.blocks()) {
    btc::Satoshi fees{};
    for (const btc::Transaction& tx : block.txs()) fees += tx.fee();
    EXPECT_EQ(block.coinbase().reward, fees) << "height " << block.height();
  }

  config.fee_only = false;
  const sim::SimResult control = sim::Engine(config).run();
  for (const btc::Block& block : control.chain.blocks()) {
    btc::Satoshi fees{};
    for (const btc::Transaction& tx : block.txs()) fees += tx.fee();
    EXPECT_EQ(block.coinbase().reward,
              fees + btc::block_subsidy(block.height()))
        << "height " << block.height();
  }
}

}  // namespace
}  // namespace cn
