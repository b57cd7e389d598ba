// The engine's determinism contract (DESIGN.md §12), tested at the
// strictest level available: exported bytes. sim::Engine's world for
// data set A, seed 4242, scale 0.15 must reproduce the SHA-256 of every
// file exported from it (the four chain CSVs, snapshots.csv,
// first_seen.csv and dataset.cnb) and the run results no export
// carries: the issued and RBF-replacement counts and the planted scam
// txids. The pins were captured from the frozen reference engine that
// sim::Engine was refactored from and matched event for event.
//
// test_golden_worlds.cpp pins a further 13 worlds at a smaller scale.
//
// Registered as a world test (one ctest entry).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "sim/dataset.hpp"
#include "sim/engine.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace cn {
namespace {

// SHA-256 of every file export_sha256() writes for the pinned world.
const std::map<std::string, std::string>& pinned_files() {
  static const std::map<std::string, std::string> kPins = {
      {"blocks.csv",
       "29c51d072da43e9ace951dbb34d336028734a78399b46661b9aeb9f3d43d116c"},
      {"dataset.cnb",
       "f0d11d58b2802c3b7a46ee706e215862fea2b3725613c574bbeabacc57e868a2"},
      {"first_seen.csv",
       "388e370900e53d82ebebb98ac732ccdbbd951f6387071238274c1cf424334b86"},
      {"inputs.csv",
       "8701228ced5bbc1997c4272a244173d52bb3f4bfe21f006047bdc206675265f0"},
      {"outputs.csv",
       "cd255ccbdf2a34ef0aae24ede9a8e9d04c1af30be3908169383306e65a843738"},
      {"snapshots.csv",
       "0c33494fe36bb61ba911297e0b9ba83a1045d76f90a19121e42927749857207b"},
      {"txs.csv",
       "3196003fba3db386c66df47b1be37f581cddf2aa2361627c8a08762ad8a9b39c"},
  };
  return kPins;
}
constexpr std::uint64_t kPinnedIssued = 36189;
constexpr std::uint64_t kPinnedRbfReplacements = 681;
// SHA-256 over the scam txids in order, one hex txid per line. Data set
// A plants no scam payments, so this is the digest of the empty list.
constexpr const char* kPinnedScamTxids =
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855";

/// Exports @p world under @p dir as the CSV data set plus dataset.cnb and
/// returns the SHA-256 of every written file, by file name.
std::map<std::string, std::string> export_sha256(const sim::SimResult& world,
                                                 const std::string& dir) {
  std::filesystem::remove_all(dir);
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

  std::map<std::string, std::string> digests;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    digests[entry.path().filename().string()] = hex_encode(sha256(bytes.str()));
  }
  return digests;
}

TEST(EngineDeterminism, WorldMatchesPins) {
  const sim::SimResult world =
      sim::Engine(sim::dataset_config(sim::DatasetKind::kA, 4242, 0.15)).run();
  EXPECT_EQ(export_sha256(world, ::testing::TempDir() + "/cn_det_pins"),
            pinned_files());
  EXPECT_EQ(world.issued_count, kPinnedIssued);
  EXPECT_EQ(world.rbf_replacements, kPinnedRbfReplacements);
  std::string scam_txids;
  for (const btc::Txid& id : world.scam_txids) scam_txids += id.to_hex() + '\n';
  EXPECT_EQ(hex_encode(sha256(scam_txids)), kPinnedScamTxids);
}

}  // namespace
}  // namespace cn
