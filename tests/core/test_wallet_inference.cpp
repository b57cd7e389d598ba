#include "core/audit_dataset.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::core {
namespace {

using cn::test::block_with_rates;
using cn::test::tx_with_rate;

btc::Block block_for_pool(std::uint64_t height, const std::string& pool,
                          const std::string& wallet_label,
                          std::vector<btc::Transaction> txs = {}) {
  btc::Coinbase cb;
  cb.tag = btc::conventional_marker(pool);
  cb.reward_address = btc::Address::derive(wallet_label);
  cb.reward = btc::Satoshi{625'000'000};
  return btc::Block(height, 600 * static_cast<SimTime>(height), cb, std::move(txs));
}

btc::CoinbaseTagRegistry small_registry() {
  btc::CoinbaseTagRegistry reg;
  reg.add("F2Pool", "/F2Pool/");
  reg.add("ViaBTC", "/ViaBTC/");
  return reg;
}

TEST(PoolTable, CountsAndShares) {
  btc::Chain chain(1);
  chain.append(block_for_pool(1, "F2Pool", "f2/w0"));
  chain.append(block_for_pool(2, "F2Pool", "f2/w1"));
  chain.append(block_for_pool(3, "ViaBTC", "via/w0"));
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());
  EXPECT_EQ(dataset.block_count(), 3u);
  EXPECT_EQ(dataset.blocks_of(dataset.pool_id("F2Pool")), 2u);
  EXPECT_EQ(dataset.blocks_of(dataset.pool_id("ViaBTC")), 1u);
  EXPECT_EQ(dataset.blocks_of(dataset.pool_id("Nobody")), 0u);
  EXPECT_NEAR(dataset.hash_share(dataset.pool_id("F2Pool")), 2.0 / 3.0, 1e-12);
}

TEST(PoolTable, PoolOfHeight) {
  btc::Chain chain(10);
  chain.append(block_for_pool(10, "F2Pool", "w"));
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());
  const PoolId pool = dataset.pool_at(10);
  ASSERT_NE(pool, kNoPoolId);
  EXPECT_EQ(dataset.pool_name(pool), "F2Pool");
  EXPECT_EQ(dataset.pool_at(11), kNoPoolId);
  EXPECT_EQ(dataset.pool_at(9), kNoPoolId);
}

TEST(PoolTable, UnidentifiedBlocks) {
  btc::Chain chain(1);
  chain.append(block_for_pool(1, "F2Pool", "w"));
  btc::Coinbase blank;  // anonymous block
  chain.append(btc::Block(2, 1200, blank, {}));
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());
  EXPECT_EQ(dataset.unidentified_blocks(), 1u);
  EXPECT_EQ(dataset.pool_at(2), kNoPoolId);
}

TEST(PoolTable, CollectsDistinctRewardWallets) {
  btc::Chain chain(1);
  chain.append(block_for_pool(1, "F2Pool", "f2/w0"));
  chain.append(block_for_pool(2, "F2Pool", "f2/w1"));
  chain.append(block_for_pool(3, "F2Pool", "f2/w0"));  // repeat
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());
  const auto wallets = dataset.reward_wallets(dataset.pool_id("F2Pool"));
  ASSERT_EQ(wallets.size(), 2u);
  EXPECT_LT(wallets[0], wallets[1]);
  EXPECT_TRUE(dataset.reward_wallets(dataset.pool_id("Unknown")).empty());
}

TEST(PoolTable, PoolsByBlocksOrdered) {
  btc::Chain chain(1);
  chain.append(block_for_pool(1, "ViaBTC", "w0"));
  chain.append(block_for_pool(2, "F2Pool", "w1"));
  chain.append(block_for_pool(3, "F2Pool", "w2"));
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());
  const auto order = dataset.pools_by_blocks();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(dataset.pool_name(order[0]), "F2Pool");
  EXPECT_EQ(dataset.pool_name(order[1]), "ViaBTC");
  // Ids are interned in chain order of first appearance.
  EXPECT_EQ(dataset.pool_id("ViaBTC"), 0u);
  EXPECT_EQ(dataset.pool_id("F2Pool"), 1u);
}

TEST(SelfInterest, FindsSpendsAndReceipts) {
  const auto wallet = btc::Address::derive("f2/w0");
  const auto user = btc::Address::derive("someone");

  // Payout from the pool wallet; deposit to the pool wallet; unrelated.
  auto payout = btc::make_payment(0, 250, btc::Satoshi{250}, wallet, user,
                                  btc::Satoshi{100}, 5001);
  auto deposit = btc::make_payment(0, 250, btc::Satoshi{250}, user, wallet,
                                   btc::Satoshi{100}, 5002);
  auto unrelated = tx_with_rate(5.0, 250, 0, 5003);

  btc::Chain chain(1);
  chain.append(block_for_pool(1, "F2Pool", "f2/w0",
                              {payout, unrelated, deposit}));
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());

  const auto txs = dataset.self_interest_txs(dataset.pool_id("F2Pool"));
  ASSERT_EQ(txs.size(), 2u);
  EXPECT_EQ(dataset.position_of(txs[0]), 0u);
  EXPECT_EQ(dataset.position_of(txs[1]), 2u);
}

TEST(SelfInterest, FindsTxsInOtherPoolsBlocks) {
  // A ViaBTC block contains an F2Pool payout: it must still be reported
  // as an F2Pool self-interest transaction (that's the whole point of the
  // x/y test).
  const auto wallet = btc::Address::derive("f2/w0");
  auto payout = btc::make_payment(0, 250, btc::Satoshi{250}, wallet,
                                  btc::Address::derive("u"), btc::Satoshi{1}, 5011);
  btc::Chain chain(1);
  chain.append(block_for_pool(1, "F2Pool", "f2/w0"));  // teaches the wallet
  chain.append(block_for_pool(2, "ViaBTC", "via/w0", {payout}));
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());
  const auto txs = dataset.self_interest_txs(dataset.pool_id("F2Pool"));
  ASSERT_EQ(txs.size(), 1u);
  EXPECT_EQ(dataset.height_of(txs[0]), 2u);
}

TEST(SelfInterest, UnknownPoolYieldsNothing) {
  btc::Chain chain(1);
  chain.append(block_for_pool(1, "F2Pool", "w"));
  const AuditDataset dataset = cn::test::dataset_of(chain, small_registry());
  EXPECT_EQ(dataset.pool_id("NoSuchPool"), kNoPoolId);
  EXPECT_TRUE(dataset.self_interest_txs(dataset.pool_id("NoSuchPool")).empty());
}

TEST(TxsPayingTo, FiltersRecipients) {
  const auto scam = btc::Address::derive("scam");
  auto to_scam = btc::make_payment(0, 250, btc::Satoshi{500},
                                   btc::Address::derive("victim"), scam,
                                   btc::Satoshi{100}, 5021);
  auto normal = tx_with_rate(5.0, 250, 0, 5022);
  btc::Chain chain(1);
  chain.append(block_for_pool(1, "F2Pool", "w", {normal, to_scam}));
  const AuditDataset dataset = cn::test::dataset_of(chain);
  const auto txs = dataset.txs_paying_to(scam);
  ASSERT_EQ(txs.size(), 1u);
  EXPECT_EQ(dataset.position_of(txs[0]), 1u);
}

}  // namespace
}  // namespace cn::core
