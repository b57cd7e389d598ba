// The engine's determinism contract (DESIGN.md §12), tested at the
// strictest level available: exported bytes. sim::Engine must match the
// frozen in-tree reference, sim::SeedEngine, event for event, including
// the CSV and CNB1 exports.
//
// Registered as a world test: the suite shares its simulated worlds
// across cases.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "sim/dataset.hpp"
#include "sim/engine.hpp"
#include "sim/engine_seed.hpp"

namespace cn {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return std::move(out).str();
}

/// Exports @p world as the CSV directory plus a CNB1 file underneath
/// @p dir; returns every written file as (relative name, bytes).
std::vector<std::pair<std::string, std::string>> export_bytes(
    const sim::SimResult& world, const std::string& dir) {
  namespace fs = std::filesystem;
  fs::remove_all(dir);
  std::string error;
  EXPECT_TRUE(io::export_chain(world.chain, dir, &error)) << error;
  EXPECT_TRUE(io::export_snapshots(world.observer.snapshots(),
                                   dir + "/snapshots.csv", &error))
      << error;
  EXPECT_TRUE(io::export_first_seen(world.observer.first_seen_map(),
                                    dir + "/first_seen.csv", &error))
      << error;
  io::CnbWriteOptions options;
  options.snapshots = &world.observer.snapshots();
  options.first_seen = &world.observer.first_seen_map();
  EXPECT_TRUE(io::write_cnb(world.chain, dir + "/dataset.cnb", options, &error))
      << error;

  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    files.emplace_back(entry.path().filename().string(),
                       slurp(entry.path().string()));
  }
  std::sort(files.begin(), files.end());
  EXPECT_GE(files.size(), 7u);  // 4 tables + 2 series + dataset.cnb
  return files;
}

void expect_identical_exports(const sim::SimResult& a, const sim::SimResult& b,
                              const std::string& tag) {
  const auto fa = export_bytes(a, ::testing::TempDir() + "/cn_det_" + tag + "_a");
  const auto fb = export_bytes(b, ::testing::TempDir() + "/cn_det_" + tag + "_b");
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_EQ(fa[i].first, fb[i].first);
    EXPECT_TRUE(fa[i].second == fb[i].second)
        << tag << ": " << fa[i].first << " bytes differ";
  }
}

/// The shared worlds: one config, simulated by the seed engine and by
/// sim::Engine.
class EngineDeterminism : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const sim::EngineConfig config =
        sim::dataset_config(sim::DatasetKind::kA, 4242, 0.15);
    seed_ = new sim::SimResult(sim::SeedEngine(config).run());
    engine_ = new sim::SimResult(sim::Engine(config).run());
  }
  static void TearDownTestSuite() {
    delete engine_;
    delete seed_;
    engine_ = seed_ = nullptr;
  }

  static sim::SimResult* seed_;
  static sim::SimResult* engine_;
};

sim::SimResult* EngineDeterminism::seed_ = nullptr;
sim::SimResult* EngineDeterminism::engine_ = nullptr;

void expect_same_world(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.chain.size(), b.chain.size());
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    const auto& ba = a.chain.blocks()[i];
    const auto& bb = b.chain.blocks()[i];
    ASSERT_EQ(ba.tx_count(), bb.tx_count()) << "block " << i;
    for (std::size_t j = 0; j < ba.tx_count(); ++j) {
      ASSERT_EQ(ba.txs()[j].id(), bb.txs()[j].id())
          << "block " << i << " position " << j;
    }
  }
  EXPECT_EQ(a.issued_count, b.issued_count);
  EXPECT_EQ(a.rbf_replacements, b.rbf_replacements);
  EXPECT_EQ(a.scam_txids, b.scam_txids);
  ASSERT_EQ(a.observer.first_seen_map().size(),
            b.observer.first_seen_map().size());
  for (const auto& [id, t] : a.observer.first_seen_map()) {
    const auto other = b.observer.first_seen(id);
    ASSERT_TRUE(other.has_value());
    EXPECT_EQ(*other, t);
  }
  EXPECT_EQ(a.observer.snapshots().stats().size(),
            b.observer.snapshots().stats().size());
}

TEST_F(EngineDeterminism, MatchesSeedEngine) {
  expect_same_world(*seed_, *engine_);
}

TEST_F(EngineDeterminism, ExportBytesMatchSeedEngine) {
  expect_identical_exports(*seed_, *engine_, "engine");
}

}  // namespace
}  // namespace cn
