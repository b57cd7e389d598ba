#include "core/neutrality.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;

/// Builds a chain with one perfectly honest pool and one misbehaving
/// pool that hoists its own low-fee transactions to the top.
struct ScoreWorld {
  btc::Chain chain{1};
  btc::CoinbaseTagRegistry registry;

  ScoreWorld() {
    registry.add("Honest", "/Honest/");
    registry.add("Hoister", "/Hoister/");

    const btc::Address hoister_wallet = btc::Address::derive("hoister-wallet");
    for (int i = 0; i < 40; ++i) {
      const std::uint64_t h = chain.empty() ? 1 : chain.next_height();
      if (i % 2 == 0) {
        chain.append(block_with_rates(h, {50, 40, 30, 20, 10},
                                      "/Honest/", 600 * static_cast<SimTime>(h)));
      } else {
        // Hoister blocks: a 1 sat/vB self-payout leads every block.
        auto payout = btc::make_payment(
            0, 250, btc::Satoshi{250}, hoister_wallet,
            btc::Address::derive("u" + std::to_string(i)),
            btc::Satoshi{1'000'000}, 90'000 + static_cast<std::uint64_t>(i));
        std::vector<btc::Transaction> txs{payout};
        for (double rate : {50.0, 40.0, 30.0, 20.0}) {
          txs.push_back(cn::test::tx_with_rate(rate, 250, 0,
                                               91'000 + static_cast<std::uint64_t>(i) * 10 +
                                                   static_cast<std::uint64_t>(rate)));
        }
        btc::Coinbase cb;
        cb.tag = "/Hoister/";
        cb.reward_address = hoister_wallet;  // teaches the auditor the wallet
        cb.reward = btc::Satoshi{625'000'000};
        chain.append(btc::Block(h, 600 * static_cast<SimTime>(h), cb, std::move(txs)));
      }
    }
  }

  std::vector<NeutralityReport> reports(const NeutralityOptions& options = {}) const {
    return neutrality_reports(cn::test::dataset_of(chain, registry), options);
  }
};

TEST(Neutrality, MisbehaverRanksBelowHonest) {
  ScoreWorld world;
  const auto reports = world.reports();
  ASSERT_EQ(reports.size(), 2u);
  // Worst first.
  EXPECT_EQ(reports[0].pool, "Hoister");
  EXPECT_EQ(reports[1].pool, "Honest");
  EXPECT_LT(reports[0].score, reports[1].score - 10.0);
  EXPECT_GT(reports[1].score, 90.0);
}

TEST(Neutrality, HonestPoolHasCleanComponents) {
  ScoreWorld world;
  const auto reports = world.reports();
  const auto& honest = reports[1];
  EXPECT_DOUBLE_EQ(honest.mean_ppe, 0.0);
  EXPECT_DOUBLE_EQ(honest.boosted_tx_rate, 0.0);
  EXPECT_FALSE(honest.self_dealing_flagged);
  EXPECT_DOUBLE_EQ(honest.below_floor_block_rate, 0.0);
}

TEST(Neutrality, MisbehaverComponentsReflectHoisting) {
  ScoreWorld world;
  const auto reports = world.reports();
  const auto& hoister = reports[0];
  EXPECT_GT(hoister.mean_ppe, 0.0);
  EXPECT_GT(hoister.boosted_tx_rate, 0.1);  // 1 of 5 txs per block hoisted
  EXPECT_TRUE(hoister.self_dealing_flagged);
  EXPECT_LT(hoister.self_dealing_p, 0.001);
  EXPECT_GT(hoister.self_dealing_sppe, 90.0);
}

TEST(Neutrality, MinBlocksFilterSkipsSmallPools) {
  ScoreWorld world;
  NeutralityOptions options;
  options.min_blocks = 100;  // both pools have only 20
  EXPECT_TRUE(world.reports(options).empty());
}

TEST(Neutrality, ScoreMonotoneInPenalties) {
  NeutralityReport clean;
  clean.mean_ppe = 0.5;
  NeutralityReport dirty = clean;
  dirty.boosted_tx_rate = 0.02;
  dirty.self_dealing_p = 0.0001;
  dirty.self_dealing_sppe = 95.0;
  EXPECT_GT(neutrality_score(clean), neutrality_score(dirty));
  EXPECT_GE(neutrality_score(dirty), 0.0);
  EXPECT_LE(neutrality_score(clean), 100.0);
}

TEST(Neutrality, ScoreBoundedAtZero) {
  NeutralityReport terrible;
  terrible.mean_ppe = 100.0;
  terrible.boosted_tx_rate = 1.0;
  terrible.self_dealing_p = 0.0;
  terrible.self_dealing_sppe = 100.0;
  terrible.below_floor_block_rate = 1.0;
  EXPECT_DOUBLE_EQ(neutrality_score(terrible), 0.0);
}

}  // namespace
}  // namespace cn::core
