// Pinned audit reports: the rendered report of two fixed inputs, at
// threads 1, 4 and 0, must match a SHA-256 digest. The digests were
// captured from the object-graph audit that the columnar pipeline
// replaced, and which rendered the same bytes on both inputs:
//   * data set C, seed 321, scale 0.25, watching the scam address;
//   * a FaultInjector(77) copy of its CSV export (row corruption at rate
//     0.02 and one snapshot gap) loaded leniently, so the data-quality
//     mask and the [INSUFFICIENT DATA] downgrades are in the report.
// Plus the --stages contract: a deselected stage is reported as
// [SKIPPED], never silently absent.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "btc/intern.hpp"
#include "core/audit_pipeline.hpp"
#include "core/data_quality.hpp"
#include "io/dataset_io.hpp"
#include "sim/dataset.hpp"
#include "testing/fault_injector.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace cn::core {
namespace {

constexpr const char* kCleanReportSha256 =
    "8409fa09061099f8fce95b36b232071896e86f494d2ce3cd485c7d735dd69ab2";
constexpr const char* kLenientReportSha256 =
    "de896eedca734dc34d6ddf1b5ed51d204c454c7b6ed74ccdfb5c27520c326b1d";

class AuditReportPins : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = new sim::SimResult(sim::make_dataset(sim::DatasetKind::kC, 321, 0.25));
  }
  static void TearDownTestSuite() {
    delete world_;
    world_ = nullptr;
  }
  static sim::SimResult* world_;
};

sim::SimResult* AuditReportPins::world_ = nullptr;

std::string rendered(const AuditReport& report, bool with_timings = false) {
  std::FILE* tmp = std::tmpfile();
  print_audit_report(report, tmp, with_timings);
  const long size = std::ftell(tmp);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(tmp);
  const std::size_t read = std::fread(out.data(), 1, out.size(), tmp);
  std::fclose(tmp);
  out.resize(read);
  return out;
}

std::string run_rendered(const btc::Chain& chain, const DataQualityReport* quality,
                         unsigned threads, const btc::Address* watch = nullptr) {
  AuditOptions options;
  options.threads = threads;
  if (watch != nullptr) options.watch_addresses.push_back(*watch);
  return rendered(run_full_audit(chain, btc::CoinbaseTagRegistry::paper_registry(),
                                 quality, options));
}

std::string sha256_hex(const std::string& text) { return hex_encode(sha256(text)); }

TEST_F(AuditReportPins, CleanWorldMatchesPinAtEveryThreadCount) {
  // threads: 1 = serial, 4 = fixed lanes, 0 = hardware concurrency.
  for (const unsigned threads : {1u, 4u, 0u}) {
    const std::string text =
        run_rendered(world_->chain, nullptr, threads, &world_->scam_address);
    ASSERT_NE(text.find("watched-address screens"), std::string::npos);
    EXPECT_EQ(sha256_hex(text), kCleanReportSha256) << "threads=" << threads;
  }
}

TEST_F(AuditReportPins, LenientLoadMatchesPinAtEveryThreadCount) {
  const std::string clean = ::testing::TempDir() + "/cn_pins_clean";
  const std::string dirty = ::testing::TempDir() + "/cn_pins_dirty";
  std::filesystem::remove_all(clean);
  std::filesystem::remove_all(dirty);
  ASSERT_TRUE(io::export_chain(world_->chain, clean));
  ASSERT_TRUE(io::export_snapshots(world_->observer.snapshots(),
                                   clean + "/snapshots.csv"));
  ASSERT_TRUE(io::export_first_seen(world_->observer.first_seen_map(),
                                    clean + "/first_seen.csv"));

  cn::testing::FaultOptions faults;
  faults.row_corruption_rate = 0.02;
  faults.snapshot_gaps = 1;
  cn::testing::FaultInjector(77).inject_dataset(clean, dirty, faults);

  const auto chain = io::import_chain(dirty, io::LoadPolicy::kLenient);
  ASSERT_TRUE(chain.has_value()) << chain.report.summary();
  const auto snapshots =
      io::import_snapshots(dirty + "/snapshots.csv", io::LoadPolicy::kLenient);
  ASSERT_TRUE(snapshots.has_value());
  const auto first_seen =
      io::import_first_seen(dirty + "/first_seen.csv", io::LoadPolicy::kLenient);
  ASSERT_TRUE(first_seen.has_value());
  const auto quality = assess_data_quality(*chain, &*snapshots, &*first_seen);

  for (const unsigned threads : {1u, 4u, 0u}) {
    const std::string text = run_rendered(*chain, &quality, threads);
    ASSERT_NE(text.find("data quality:"), std::string::npos);
    EXPECT_EQ(sha256_hex(text), kLenientReportSha256) << "threads=" << threads;
  }
  std::filesystem::remove_all(clean);
  std::filesystem::remove_all(dirty);
}

TEST_F(AuditReportPins, ImporterInternedTableChangesNothing) {
  const std::string dir = ::testing::TempDir() + "/cn_diff_intern";
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(io::export_chain(world_->chain, dir));

  btc::AddressTable addresses;
  const auto reloaded =
      io::import_chain(dir, io::LoadPolicy::kStrict, &addresses);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_GT(addresses.size(), 0u);
  // Every address the chain references came out interned.
  for (const btc::Block& block : reloaded->blocks()) {
    for (const btc::Transaction& tx : block.txs()) {
      for (const btc::TxInput& in : tx.inputs()) {
        EXPECT_NE(addresses.lookup(in.owner), btc::kNoAddressId);
      }
      for (const btc::TxOutput& out : tx.outputs()) {
        EXPECT_NE(addresses.lookup(out.to), btc::kNoAddressId);
      }
    }
  }

  AuditOptions with_table;
  with_table.threads = 1;
  with_table.interned_addresses = &addresses;
  AuditOptions without_table = with_table;
  without_table.interned_addresses = nullptr;
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  EXPECT_EQ(rendered(run_full_audit(*reloaded, registry, with_table)),
            rendered(run_full_audit(*reloaded, registry, without_table)));
  std::filesystem::remove_all(dir);
}

// --- stage selection -------------------------------------------------------

class AuditStagesTest : public AuditReportPins {};

TEST_F(AuditStagesTest, SkippedStageIsMarkedNotSilentlyAbsent) {
  AuditOptions options;
  options.threads = 1;
  options.stages = {"norm-stats"};  // everything else deselected
  options.watch_addresses.push_back(world_->scam_address);
  const auto report = run_full_audit(
      world_->chain, btc::CoinbaseTagRegistry::paper_registry(), options);

  EXPECT_FALSE(report.stage_skipped("build"));
  EXPECT_FALSE(report.stage_skipped("quality-mask"));
  EXPECT_FALSE(report.stage_skipped("norm-stats"));
  EXPECT_TRUE(report.stage_skipped("pool-tests"));
  EXPECT_TRUE(report.stage_skipped("screens"));
  EXPECT_TRUE(report.stage_skipped("darkfee"));
  EXPECT_TRUE(report.stage_skipped("neutrality"));
  EXPECT_TRUE(report.findings.empty());
  EXPECT_TRUE(report.screens.empty());
  EXPECT_TRUE(report.darkfee.empty());
  EXPECT_TRUE(report.neutrality.empty());

  const std::string text = rendered(report);
  EXPECT_NE(text.find("[SKIPPED]"), std::string::npos)
      << "skipped stages must be visible in the rendered report";
  // Norm statistics (the one selected analysis) still printed for real.
  EXPECT_EQ(text.find("norm-II adherence: [SKIPPED]"), std::string::npos);
}

TEST_F(AuditStagesTest, SkippingNormStatsMarksThatSectionToo) {
  AuditOptions options;
  options.threads = 1;
  options.stages = {"darkfee"};
  const auto report = run_full_audit(
      world_->chain, btc::CoinbaseTagRegistry::paper_registry(), options);
  EXPECT_TRUE(report.stage_skipped("norm-stats"));
  EXPECT_FALSE(report.stage_skipped("darkfee"));
  EXPECT_FALSE(report.darkfee.empty());
  const std::string text = rendered(report);
  EXPECT_NE(text.find("norm-II adherence: [SKIPPED]"), std::string::npos);
}

TEST_F(AuditStagesTest, AllStagesSelectedMatchesDefault) {
  AuditOptions all;
  all.threads = 1;
  all.stages = audit_stage_names();
  AuditOptions none;
  none.threads = 1;
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  EXPECT_EQ(rendered(run_full_audit(world_->chain, registry, all)),
            rendered(run_full_audit(world_->chain, registry, none)));
}

TEST_F(AuditStagesTest, StagesAreTimedInExecutionOrder) {
  AuditOptions options;
  options.threads = 1;
  const auto report = run_full_audit(
      world_->chain, btc::CoinbaseTagRegistry::paper_registry(), options);
  ASSERT_EQ(report.stages.size(), audit_stage_names().size());
  for (std::size_t i = 0; i < report.stages.size(); ++i) {
    EXPECT_EQ(report.stages[i].name, audit_stage_names()[i]);
    EXPECT_TRUE(report.stages[i].ran);
    EXPECT_GE(report.stages[i].seconds, 0.0);
  }
  EXPECT_FALSE(report.stage_skipped("darkfee"));
  EXPECT_FALSE(report.stage_skipped("no-such-stage"));

  // The timings footer renders on demand and never in the default form.
  EXPECT_EQ(rendered(report).find("stage timings"), std::string::npos);
  EXPECT_NE(rendered(report, /*with_timings=*/true).find("stage timings"),
            std::string::npos);
}

}  // namespace
}  // namespace cn::core
