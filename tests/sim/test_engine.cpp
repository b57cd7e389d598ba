#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "sim/dataset.hpp"

namespace cn::sim {
namespace {

EngineConfig tiny_config(std::uint64_t seed = 1) {
  EngineConfig config;
  config.seed = seed;
  config.duration = 6 * kHour;
  config.genesis_height = 700'000;
  config.max_block_vsize = 50'000;
  config.pools = {
      PoolSpec{.name = "Alpha", .hash_share = 0.6},
      PoolSpec{.name = "Beta", .hash_share = 0.4},
  };
  config.workload.base_tx_per_second = rate_for_utilization(config, 0.8);
  config.workload.diurnal_amplitude = 0.1;
  return config;
}

TEST(Engine, ProducesBlocksAndTxs) {
  Engine engine(tiny_config());
  const SimResult result = engine.run();
  // ~36 blocks expected over 6h; allow wide slack.
  EXPECT_GT(result.chain.size(), 10u);
  EXPECT_LT(result.chain.size(), 90u);
  EXPECT_GT(result.chain.total_tx_count(), 500u);
  EXPECT_GE(result.issued_count, result.chain.total_tx_count());
}

TEST(Engine, DeterministicForSameSeed) {
  const SimResult a = Engine(tiny_config(5)).run();
  const SimResult b = Engine(tiny_config(5)).run();
  ASSERT_EQ(a.chain.size(), b.chain.size());
  for (std::size_t i = 0; i < a.chain.size(); ++i) {
    const auto& ba = a.chain.blocks()[i];
    const auto& bb = b.chain.blocks()[i];
    ASSERT_EQ(ba.tx_count(), bb.tx_count()) << "block " << i;
    for (std::size_t j = 0; j < ba.tx_count(); ++j) {
      ASSERT_EQ(ba.txs()[j].id(), bb.txs()[j].id()) << "block " << i << " pos " << j;
    }
  }
  EXPECT_EQ(a.issued_count, b.issued_count);
}

TEST(Engine, DifferentSeedsDiffer) {
  const SimResult a = Engine(tiny_config(1)).run();
  const SimResult b = Engine(tiny_config(2)).run();
  // Chains of same genesis but different content.
  bool differs = a.chain.size() != b.chain.size();
  if (!differs && !a.chain.empty() && a.chain.front().tx_count() > 0 &&
      b.chain.front().tx_count() > 0) {
    differs = a.chain.front().txs()[0].id() != b.chain.front().txs()[0].id();
  }
  EXPECT_TRUE(differs);
}

TEST(Engine, BlockHeightsContiguousFromGenesis) {
  const SimResult r = Engine(tiny_config()).run();
  ASSERT_FALSE(r.chain.empty());
  EXPECT_EQ(r.chain.front().height(), 700'000u);
  for (std::size_t i = 1; i < r.chain.size(); ++i) {
    EXPECT_EQ(r.chain.blocks()[i].height(), 700'000u + i);
  }
}

TEST(Engine, ChainIntegrityVerifies) {
  const SimResult r = Engine(tiny_config()).run();
  EXPECT_TRUE(r.chain.verify_integrity());
  EXPECT_FALSE(r.chain.tip_hash().is_null());
}

TEST(Engine, BlockTimesStrictlyIncrease) {
  const SimResult r = Engine(tiny_config()).run();
  for (std::size_t i = 1; i < r.chain.size(); ++i) {
    EXPECT_GT(r.chain.blocks()[i].mined_at(), r.chain.blocks()[i - 1].mined_at());
  }
}

TEST(Engine, BlocksRespectScaledBudget) {
  const SimResult r = Engine(tiny_config()).run();
  for (const auto& block : r.chain.blocks()) {
    EXPECT_LE(block.total_vsize(), 50'000u - btc::kCoinbaseVsize);
  }
}

TEST(Engine, CoinbaseRewardIsSubsidyPlusFees) {
  const SimResult r = Engine(tiny_config()).run();
  for (const auto& block : r.chain.blocks()) {
    const auto expected = btc::block_subsidy(block.height()) + block.total_fees();
    EXPECT_EQ(block.coinbase().reward.value, expected.value);
  }
}

TEST(Engine, PoolSharesRoughlyRespected) {
  EngineConfig config = tiny_config();
  config.duration = 3 * kDay;  // more blocks for tighter estimate
  const SimResult r = Engine(config).run();
  std::uint64_t alpha = 0;
  for (const auto& block : r.chain.blocks()) {
    if (block.coinbase().tag == "/Alpha/") ++alpha;
  }
  const double share = static_cast<double>(alpha) / static_cast<double>(r.chain.size());
  EXPECT_NEAR(share, 0.6, 0.12);
}

TEST(Engine, ObserverSnapshotsEvery15s) {
  const SimResult r = Engine(tiny_config()).run();
  const auto& stats = r.observer.snapshots().stats();
  ASSERT_GT(stats.size(), 100u);
  EXPECT_EQ(stats[0].time, 15);
  EXPECT_EQ(stats[1].time - stats[0].time, 15);
}

TEST(Engine, CommittedTxsWereIssuedEarlier) {
  const SimResult r = Engine(tiny_config()).run();
  for (const auto& block : r.chain.blocks()) {
    for (const auto& tx : block.txs()) EXPECT_LE(tx.issued(), block.mined_at());
  }
}

TEST(Engine, ObserverNeverFirstSeesACommittedTx) {
  // A floor of 0 lets the observer accept every delivery, so a committed
  // transaction without a first-seen time is one some block took before
  // its copy reached the observer; that copy must not be delivered.
  EngineConfig config = tiny_config();
  config.observer_min_relay_sat_per_vb = 0;
  const SimResult r = Engine(config).run();
  std::uint64_t seen = 0, unseen = 0;
  for (const auto& block : r.chain.blocks()) {
    for (const auto& tx : block.txs()) {
      const std::optional<SimTime> first_seen = r.observer.first_seen(tx.id());
      if (!first_seen) {
        ++unseen;
        continue;
      }
      ++seen;
      EXPECT_LE(*first_seen, block.mined_at());
    }
  }
  EXPECT_GT(seen, 0u);
  EXPECT_GT(unseen, 0u);
}

TEST(Engine, NoDuplicateCommits) {
  const SimResult r = Engine(tiny_config()).run();
  std::unordered_set<btc::Txid> seen;
  for (const auto& block : r.chain.blocks()) {
    for (const auto& tx : block.txs()) {
      EXPECT_TRUE(seen.insert(tx.id()).second) << "duplicate commit";
    }
  }
}

TEST(Engine, EmptyBlockFractionHonored) {
  EngineConfig config = tiny_config();
  config.duration = 2 * kDay;
  config.empty_block_fraction = 0.5;
  const SimResult r = Engine(config).run();
  const double frac = static_cast<double>(r.chain.empty_block_count()) /
                      static_cast<double>(r.chain.size());
  EXPECT_NEAR(frac, 0.5, 0.15);
}

TEST(Engine, CpfpPairsAppearInBlocks) {
  EngineConfig config = tiny_config();
  config.duration = 1 * kDay;
  config.workload.cpfp_fraction = 0.4;
  const SimResult r = Engine(config).run();
  std::uint64_t cpfp = 0, total = 0;
  for (const auto& block : r.chain.blocks()) {
    cpfp += block.cpfp_positions().size();
    total += block.tx_count();
  }
  ASSERT_GT(total, 0u);
  EXPECT_GT(static_cast<double>(cpfp) / static_cast<double>(total), 0.01);
}

TEST(Engine, AnonymousPoolLeavesBlankTag) {
  EngineConfig config = tiny_config();
  config.pools.push_back(
      PoolSpec{.name = "(unknown)", .hash_share = 0.5, .anonymous = true});
  config.duration = 1 * kDay;
  const SimResult r = Engine(config).run();
  std::uint64_t blank = 0;
  for (const auto& block : r.chain.blocks()) {
    if (block.coinbase().tag.empty()) ++blank;
  }
  EXPECT_GT(blank, 0u);
}

TEST(Engine, AccelerationLedgerPopulatedWhenOffered) {
  EngineConfig config = tiny_config();
  config.duration = 2 * kDay;
  config.pools[0].offers_acceleration = true;
  config.workload.accel_request_fraction = 0.05;
  const SimResult r = Engine(config).run();
  EXPECT_GT(r.acceleration.total_accelerated(), 0u);
}

TEST(Engine, ScamTxsRecordedInWindow) {
  EngineConfig config = tiny_config();
  config.duration = 2 * kDay;
  ScamConfig scam;
  scam.start = 4 * kHour;
  scam.end = 30 * kHour;
  scam.txs_per_hour = 6.0;
  config.workload.scam = scam;
  const SimResult r = Engine(config).run();
  EXPECT_FALSE(r.scam_address.is_null());
  EXPECT_GT(r.scam_txids.size(), 20u);
  // Every committed scam tx was issued inside the window.
  const std::unordered_set<btc::Txid> scam_ids(r.scam_txids.begin(),
                                               r.scam_txids.end());
  std::uint64_t committed = 0;
  for (const btc::Block& block : r.chain.blocks()) {
    for (const btc::Transaction& tx : block.txs()) {
      if (!scam_ids.contains(tx.id())) continue;
      ++committed;
      EXPECT_GE(tx.issued(), scam.start);
      EXPECT_LT(tx.issued(), scam.end);
    }
  }
  EXPECT_GE(committed, 20u);
}

TEST(Engine, RbfReplacementsHappenAndReplacedTxsNeverCommit) {
  EngineConfig config = tiny_config();
  config.duration = 2 * kDay;
  config.workload.rbf_fraction = 0.10;
  const SimResult r = Engine(config).run();
  EXPECT_GT(r.rbf_replacements, 5u);
  // Sanity: no two committed transactions spend the same outpoint.
  std::unordered_map<std::uint64_t, int> outpoints;
  for (const auto& block : r.chain.blocks()) {
    for (const auto& tx : block.txs()) {
      for (const auto& in : tx.inputs()) {
        if (in.prev_txid.is_null()) continue;
        const std::uint64_t key = in.prev_txid.short_id() ^ in.prev_vout;
        EXPECT_EQ(++outpoints[key], 1) << "conflicting commits";
      }
    }
  }
}

TEST(Engine, RbfDisabledByZeroFraction) {
  EngineConfig config = tiny_config();
  config.workload.rbf_fraction = 0.0;
  const SimResult r = Engine(config).run();
  EXPECT_EQ(r.rbf_replacements, 0u);
}

TEST(EngineDeathTest, RunTwiceForbidden) {
  Engine engine(tiny_config());
  (void)engine.run();
  EXPECT_DEATH((void)engine.run(), "ran_");
}

// --- wall-clock deadline (EngineConfig::deadline_s) ---------------------

TEST(EngineDeadline, ZeroDeadlineNeverFires) {
  EngineConfig config = tiny_config();
  config.deadline_s = 0.0;
  const SimResult r = Engine(config).run();
  EXPECT_FALSE(r.timeout.timed_out);
  EXPECT_EQ(r.timeout.events_processed, 0u);
}

TEST(EngineDeadline, GenerousDeadlineCompletesUntouched) {
  EngineConfig config = tiny_config(5);
  config.deadline_s = 3600.0;
  const SimResult with_deadline = Engine(config).run();
  EXPECT_FALSE(with_deadline.timeout.timed_out);
  // A deadline that never fires must not perturb the simulation.
  const SimResult reference = Engine(tiny_config(5)).run();
  ASSERT_EQ(with_deadline.chain.size(), reference.chain.size());
  for (std::size_t i = 0; i < reference.chain.size(); ++i) {
    ASSERT_EQ(with_deadline.chain.blocks()[i].tx_count(),
              reference.chain.blocks()[i].tx_count());
  }
}

TEST(EngineDeadline, TinyDeadlineStopsSerialRunWithDiagnostics) {
  EngineConfig config = tiny_config();
  config.duration = 365 * kDay;  // far more than the budget allows
  config.deadline_s = 0.05;
  const SimResult r = Engine(config).run();
  ASSERT_TRUE(r.timeout.timed_out);
  EXPECT_GE(r.timeout.elapsed_s, config.deadline_s);
  EXPECT_LT(r.timeout.sim_time_reached, r.timeout.sim_duration);
  EXPECT_EQ(r.timeout.sim_duration, config.duration);
  EXPECT_GT(r.timeout.events_processed, 0u);
  EXPECT_EQ(r.timeout.blocks_committed, r.chain.size());
  const std::string line = r.timeout.describe();
  EXPECT_NE(line.find("deadline exceeded"), std::string::npos) << line;
  // The partial chain is still internally consistent.
  EXPECT_TRUE(r.chain.verify_integrity());
}

}  // namespace
}  // namespace cn::sim
