// Golden world corpus: the SHA-256 of the CNB1 bytes of small worlds
// that together take every template-builder path — GBT on data sets A, B
// and C, the legacy coin-age builder, aging, selfish and evasive boosts,
// propagation and withholding exclusions, the FIFO fair queue, a
// fee-only regime, a year slice, and two sharded worlds. Each file is
// written with the options io::WorldCache uses for a cache entry.
//
// test_determinism.cpp compares the serial engine with the frozen seed
// engine, but both share src/node/, so a change to the mempool or the
// template builder is invisible to it; these digests see it. A digest
// that changes means the world bytes changed. When that is intended,
// bump sim::kWorldSpecVersion (so stale cache entries stop being
// addressed, DESIGN.md §14) and re-pin every digest below; otherwise it
// is a determinism regression.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "io/cnb.hpp"
#include "io/world_cache.hpp"
#include "sim/engine.hpp"
#include "sim/world_spec.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace cn {
namespace {

// Small enough that the whole corpus simulates in seconds, large enough
// that congestion fills blocks and builds end on a full budget.
constexpr double kScale = 0.04;
constexpr std::uint64_t kSeed = 42;

// The sim::kWorldSpecVersion the digests below were pinned at.
constexpr std::uint32_t kPinnedSpecVersion = 1;

struct GoldenWorld {
  const char* name;
  sim::WorldSpec spec;
  unsigned threads;  ///< 1 = the serial engine
  const char* sha256;
};

sim::WorldSpec scenario(sim::DatasetKind kind, const char* label) {
  sim::WorldSpec spec = sim::baseline_spec(kind, kSeed, kScale);
  spec.scenario = label;
  return spec;
}

// bench/worlds.hpp's detection world: data set C without the scam
// window, self-interest planted at half a transaction per block.
sim::WorldSpec detection(bool propagation) {
  sim::WorldSpec spec = scenario(sim::DatasetKind::kC, "detection");
  spec.set("scam", 0.0);
  spec.set("self_interest_per_block", 0.5);
  spec.set("propagation_exclusion", propagation ? 1.0 : 0.0);
  return spec;
}

sim::WorldSpec selfish(bool propagation) {
  return detection(propagation).set("selfish", 1.0);
}

const std::vector<GoldenWorld>& corpus() {
  using sim::DatasetKind;
  static const std::vector<GoldenWorld>* worlds = [] {
    sim::WorldSpec withholding = selfish(true);
    withholding.scenario = "withholding";
    withholding.set("withhold_delay_s", 120.0);
    sim::WorldSpec year = scenario(DatasetKind::kC, "year-slice");
    year.set("genesis_height", 450'000.0);
    year.set("scam", 0.0);
    year.set("clear_bursts", 1.0);
    year.set("utilization", 0.92);
    year.set("anchor_multiplier", 3.6);
    const sim::WorldSpec baseline_c = sim::baseline_spec(DatasetKind::kC, kSeed, kScale);

    return new std::vector<GoldenWorld>{
        {"baseline-A", sim::baseline_spec(DatasetKind::kA, kSeed, kScale), 1,
         "a79c176da633857cedfff6ea4fc599c33c31aadefa50a7d7e391bcbab3307ae3"},
        {"baseline-B", sim::baseline_spec(DatasetKind::kB, kSeed, kScale), 1,
         "1eef54b8fe837f36191f4e2e37602ad6c48c6c2f17ff459fecbe839e7ab94b94"},
        {"baseline-C", baseline_c, 1,
         "efbef403aab7c83f107eefa005a4271acb0f977731e76e5f622e53785cdc23b5"},
        {"era-legacy", scenario(DatasetKind::kA, "era-legacy").set("builder", 1.0), 1,
         "eba08b82ca4c20dbf466010cbf9313e92fbf1d086607ceb025fe2d0e22956cb1"},
        {"aging-0.2", scenario(DatasetKind::kA, "aging").set("age_weight_per_hour", 0.2),
         1, "5acc05e20f149f6102dfcfe19e96fe8f6b3df22bd3a3454694276bd75717cded"},
        {"aging-1.0", scenario(DatasetKind::kA, "aging").set("age_weight_per_hour", 1.0),
         1, "310f472cc0e42aea947ba5fdc34754011f74ef79463a0844b8885e0fbd3738f5"},
        {"selfish", selfish(true), 1,
         "50ddd09f215b449eb54762adae31c7fb8b3f870fbd85646a65fa0e3b514a716b"},
        {"selfish-no-propagation", selfish(false), 1,
         "31c8be13f5c3304d008858e56e598358bdaa5036acf7b6383d9043d7f585b160"},
        {"evasion-0.5", detection(true).set("evasion_theta", 0.5), 1,
         "9e5a3d62362c0e8f6a4ef6fc3fd7d620e51e77d32fef471cc72286c78015c133"},
        {"withholding-120s", withholding, 1,
         "237205ca155813b8085229ceb3d1565b4e1b4aeed4d644023c2e15963b105406"},
        {"fair-queue", scenario(DatasetKind::kC, "fair-queue").set("fair_queue", 1.0), 1,
         "04d9c74d7d683d7e1234e2057a913e7b28e38782706c348869136329d4b6232a"},
        {"fee-only", scenario(DatasetKind::kC, "fee-only").set("fee_only", 1.0), 1,
         "01c48290b5d994d3d1bc91b6d1b633c84c5235756b7e0c4a0572d25b7c4ff77d"},
        {"year-slice-2017", year, 1,
         "20165caa6169e2a723f52637c588efd4ad0246bb112c10fcd4f5b2e131735582"},
        {"baseline-C-threads4", baseline_c, 4,
         "803072e77206443b6df96cf153ebe7e4024daf9c84e2ad2b6ca01979f2ff8272"},
        {"selfish-threads4", selfish(true), 4,
         "f381e240a3dd1e2f1147a9585d0eea3fda03fc779fdcb27c1e65a0471eb43d6d"},
    };
  }();
  return *worlds;
}

std::string file_sha256(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return hex_encode(sha256(bytes));
}

/// Simulates @p world and returns the SHA-256 of its CNB1 file, written
/// exactly as io::WorldCache::generate writes a cache entry.
std::string world_sha256(const GoldenWorld& world, const std::filesystem::path& path) {
  sim::EngineConfig config = world.spec.config();
  config.threads = world.threads;
  const sim::SimResult result = sim::Engine(config).run();

  io::SimWorldInfo truth;
  truth.spec_fingerprint = world.spec.fingerprint();
  truth.scam_address = result.scam_address;
  truth.accelerated_txids = result.acceleration.all_accelerated_sorted();
  io::CnbWriteOptions options;
  options.snapshots = &result.observer.snapshots();
  options.first_seen = &result.observer.first_seen_map();
  options.world = &truth;
  std::string error;
  EXPECT_TRUE(io::write_cnb(result.chain, path.string(), options, &error)) << error;
  return file_sha256(path);
}

std::filesystem::path fresh_dir(const char* name) {
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(GoldenWorlds, CnbBytesMatchPins) {
  ASSERT_EQ(sim::kWorldSpecVersion, kPinnedSpecVersion)
      << "sim::kWorldSpecVersion changed: re-simulate the corpus, re-pin "
         "every digest in this file and set kPinnedSpecVersion to match.";
  const std::filesystem::path dir = fresh_dir("cn_golden_worlds");
  for (const GoldenWorld& world : corpus()) {
    EXPECT_EQ(world_sha256(world, dir / (std::string(world.name) + ".cnb")), world.sha256)
        << world.name << " (" << world.spec.label() << ", threads " << world.threads
        << "): the world bytes changed. If the change is intended, bump "
           "sim::kWorldSpecVersion and re-pin every digest in this file "
           "(ROADMAP item 4b); otherwise it is a determinism regression.";
  }
  std::filesystem::remove_all(dir);
}

TEST(GoldenWorlds, PinsAreWorldCacheEntries) {
  // world_sha256 mirrors io::WorldCache::generate; check it against the
  // cache itself on one world so the pins stay cache-entry digests.
  const std::filesystem::path dir = fresh_dir("cn_golden_cache");
  io::WorldCache cache(dir.string());
  const GoldenWorld& first = corpus().front();
  cache.materialize(first.spec);
  EXPECT_EQ(file_sha256(cache.path_for(first.spec)), first.sha256);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cn
