#include "core/audit_pipeline.hpp"

#include <gtest/gtest.h>

#include "sim/dataset.hpp"

namespace cn::core {
namespace {

class AuditPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new sim::SimResult(sim::make_dataset(sim::DatasetKind::kC, 321, 0.5));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static sim::SimResult* world_;
};

sim::SimResult* AuditPipelineTest::world_ = nullptr;

TEST_F(AuditPipelineTest, FindsPlantedMisbehaviour) {
  AuditOptions options;
  options.watch_addresses.push_back(world_->scam_address);
  const auto report = run_full_audit(
      world_->chain, btc::CoinbaseTagRegistry::paper_registry(), options);

  EXPECT_EQ(report.blocks, world_->chain.size());
  EXPECT_EQ(report.txs, world_->chain.total_tx_count());
  EXPECT_GT(report.ppe.count, 100u);
  EXPECT_LT(report.ppe.mean, 8.0);

  // The planted selfish pools must appear among the findings.
  const auto has_finding = [&](const std::string& owner, const std::string& miner) {
    for (const auto& f : report.findings) {
      if (f.tx_owner == owner && f.miner == miner) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_finding("F2Pool", "F2Pool"));
  EXPECT_TRUE(has_finding("ViaBTC", "ViaBTC"));
  EXPECT_TRUE(has_finding("SlushPool", "ViaBTC"));         // collusion
  EXPECT_TRUE(has_finding("1THash&58Coin", "ViaBTC"));     // collusion
  // Honest pools never show up as selfish.
  EXPECT_FALSE(has_finding("Poolin", "Poolin"));
  EXPECT_FALSE(has_finding("AntPool", "AntPool"));

  // Collusion flag set exactly when owner != miner.
  for (const auto& f : report.findings) {
    EXPECT_EQ(f.collusion, f.tx_owner != f.miner);
    EXPECT_LT(f.test.p_accelerate, options.alpha);
    // Bootstrap CI brackets the point SPPE.
    EXPECT_LE(f.sppe_ci.lo, f.test.sppe + 1e-9);
    EXPECT_GE(f.sppe_ci.hi, f.test.sppe - 1e-9);
  }
}

TEST_F(AuditPipelineTest, ScamScreenIsClean) {
  AuditOptions options;
  options.watch_addresses.push_back(world_->scam_address);
  const auto report = run_full_audit(
      world_->chain, btc::CoinbaseTagRegistry::paper_registry(), options);
  ASSERT_EQ(report.screens.size(), 1u);
  EXPECT_GT(report.screens[0].tx_count, 10u);
  EXPECT_FALSE(report.screens[0].any_significant);
  EXPECT_FALSE(report.screens[0].per_pool.empty());
}

TEST_F(AuditPipelineTest, DarkFeeSuspicionRankedAndPlausible) {
  const auto report = run_full_audit(world_->chain,
                                     btc::CoinbaseTagRegistry::paper_registry());
  ASSERT_FALSE(report.darkfee.empty());
  // Ranked by flag rate, descending.
  for (std::size_t i = 1; i < report.darkfee.size(); ++i) {
    const auto rate = [](const DarkFeeSuspicion& d) {
      return d.txs ? static_cast<double>(d.flagged) / static_cast<double>(d.txs)
                   : 0.0;
    };
    EXPECT_GE(rate(report.darkfee[i - 1]), rate(report.darkfee[i]) - 1e-12);
  }
  // The acceleration-selling pools dominate the top ranks.
  std::uint64_t sellers_flagged = 0, others_flagged = 0;
  for (const auto& d : report.darkfee) {
    const bool seller = d.pool == "BTC.com" || d.pool == "AntPool" ||
                        d.pool == "ViaBTC" || d.pool == "F2Pool" ||
                        d.pool == "Poolin";
    (seller ? sellers_flagged : others_flagged) += d.flagged;
  }
  EXPECT_GT(sellers_flagged, 5 * std::max<std::uint64_t>(others_flagged, 1));
}

TEST_F(AuditPipelineTest, NeutralityRanksPlantsWorst) {
  const auto report = run_full_audit(world_->chain,
                                     btc::CoinbaseTagRegistry::paper_registry());
  ASSERT_GE(report.neutrality.size(), 5u);
  // The three worst scores all belong to planted misbehaving pools.
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& pool = report.neutrality[i].pool;
    EXPECT_TRUE(pool == "F2Pool" || pool == "ViaBTC" ||
                pool == "1THash&58Coin" || pool == "SlushPool")
        << pool;
  }
}

TEST_F(AuditPipelineTest, PrintDoesNotCrash) {
  const auto report = run_full_audit(world_->chain,
                                     btc::CoinbaseTagRegistry::paper_registry());
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  print_audit_report(report, tmp);
  EXPECT_GT(std::ftell(tmp), 200);
  std::fclose(tmp);
}

// --- threading determinism -------------------------------------------------

namespace determinism {

void expect_tests_identical(const PrioTestResult& a, const PrioTestResult& b) {
  EXPECT_EQ(a.pool, b.pool);
  EXPECT_EQ(a.theta0, b.theta0);
  EXPECT_EQ(a.x, b.x);
  EXPECT_EQ(a.y, b.y);
  EXPECT_EQ(a.p_accelerate, b.p_accelerate);
  EXPECT_EQ(a.p_decelerate, b.p_decelerate);
  EXPECT_EQ(a.sppe, b.sppe);
  EXPECT_EQ(a.sppe_count, b.sppe_count);
}

/// Field-exact equality over everything run_full_audit computes (options
/// excluded: they echo the input and differ in `threads` by design).
void expect_reports_identical(const AuditReport& a, const AuditReport& b) {
  EXPECT_EQ(a.blocks, b.blocks);
  EXPECT_EQ(a.txs, b.txs);
  EXPECT_EQ(a.unidentified_blocks, b.unidentified_blocks);
  EXPECT_EQ(a.ppe.mean, b.ppe.mean);
  EXPECT_EQ(a.ppe.stddev, b.ppe.stddev);
  EXPECT_EQ(a.ppe.count, b.ppe.count);

  ASSERT_EQ(a.findings.size(), b.findings.size());
  for (std::size_t i = 0; i < a.findings.size(); ++i) {
    EXPECT_EQ(a.findings[i].tx_owner, b.findings[i].tx_owner);
    EXPECT_EQ(a.findings[i].miner, b.findings[i].miner);
    EXPECT_EQ(a.findings[i].collusion, b.findings[i].collusion);
    expect_tests_identical(a.findings[i].test, b.findings[i].test);
    EXPECT_EQ(a.findings[i].sppe_ci.point, b.findings[i].sppe_ci.point);
    EXPECT_EQ(a.findings[i].sppe_ci.lo, b.findings[i].sppe_ci.lo);
    EXPECT_EQ(a.findings[i].sppe_ci.hi, b.findings[i].sppe_ci.hi);
    EXPECT_EQ(a.findings[i].sppe_ci.resamples, b.findings[i].sppe_ci.resamples);
  }

  ASSERT_EQ(a.screens.size(), b.screens.size());
  for (std::size_t i = 0; i < a.screens.size(); ++i) {
    EXPECT_EQ(a.screens[i].address, b.screens[i].address);
    EXPECT_EQ(a.screens[i].tx_count, b.screens[i].tx_count);
    EXPECT_EQ(a.screens[i].any_significant, b.screens[i].any_significant);
    ASSERT_EQ(a.screens[i].per_pool.size(), b.screens[i].per_pool.size());
    for (std::size_t p = 0; p < a.screens[i].per_pool.size(); ++p) {
      expect_tests_identical(a.screens[i].per_pool[p], b.screens[i].per_pool[p]);
    }
  }

  ASSERT_EQ(a.darkfee.size(), b.darkfee.size());
  for (std::size_t i = 0; i < a.darkfee.size(); ++i) {
    EXPECT_EQ(a.darkfee[i].pool, b.darkfee[i].pool);
    EXPECT_EQ(a.darkfee[i].txs, b.darkfee[i].txs);
    EXPECT_EQ(a.darkfee[i].flagged, b.darkfee[i].flagged);
  }

  ASSERT_EQ(a.neutrality.size(), b.neutrality.size());
  for (std::size_t i = 0; i < a.neutrality.size(); ++i) {
    EXPECT_EQ(a.neutrality[i].pool, b.neutrality[i].pool);
    EXPECT_EQ(a.neutrality[i].score, b.neutrality[i].score);
    EXPECT_EQ(a.neutrality[i].mean_ppe, b.neutrality[i].mean_ppe);
    EXPECT_EQ(a.neutrality[i].self_dealing_p, b.neutrality[i].self_dealing_p);
  }
}

std::string rendered(const AuditReport& report) {
  std::FILE* tmp = std::tmpfile();
  print_audit_report(report, tmp);
  const long size = std::ftell(tmp);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(tmp);
  const std::size_t read = std::fread(out.data(), 1, out.size(), tmp);
  std::fclose(tmp);
  out.resize(read);
  return out;
}

}  // namespace determinism

TEST_F(AuditPipelineTest, ThreadedReportIsByteIdenticalToSerial) {
  AuditOptions serial_options;
  serial_options.watch_addresses.push_back(world_->scam_address);
  serial_options.threads = 1;
  AuditOptions threaded_options = serial_options;
  threaded_options.threads = 4;

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const auto serial = run_full_audit(world_->chain, registry, serial_options);
  const auto threaded = run_full_audit(world_->chain, registry, threaded_options);

  determinism::expect_reports_identical(serial, threaded);
  // The rendered reports agree byte for byte (options are not printed
  // beyond the shared dark-fee threshold).
  EXPECT_EQ(determinism::rendered(serial), determinism::rendered(threaded));

  // A second threaded run is also stable (no scheduling dependence).
  const auto again = run_full_audit(world_->chain, registry, threaded_options);
  determinism::expect_reports_identical(threaded, again);
}

TEST(AuditPipeline, EmptyChainYieldsEmptyReport) {
  btc::Chain chain(1);
  const auto report =
      run_full_audit(chain, btc::CoinbaseTagRegistry::paper_registry());
  EXPECT_EQ(report.blocks, 0u);
  EXPECT_TRUE(report.findings.empty());
  EXPECT_TRUE(report.neutrality.empty());
}

// A prebuilt dataset's PoolIds are those of the registry it was
// attributed under: audited under another registry, run_full_audit
// aborts instead of naming pools by the wrong ids.
TEST(PrebuiltDatasetDeathTest, ForeignRegistryAborts) {
  btc::Chain chain(1);
  btc::CoinbaseTagRegistry other;
  other.add("F2Pool", "/F2Pool/");
  const AuditDataset foreign = AuditDataset::build(chain, other, 1);
  AuditOptions options;
  options.prebuilt_dataset = &foreign;
  EXPECT_DEATH((void)run_full_audit(
                   chain, btc::CoinbaseTagRegistry::paper_registry(), options),
               "registry_fingerprint");
}

}  // namespace
}  // namespace cn::core
