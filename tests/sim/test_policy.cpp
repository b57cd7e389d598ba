#include "sim/policy.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::sim {
namespace {

using cn::test::tx_with_rate;

const btc::Address kPoolWallet = btc::Address::derive("pool/wallet/0");
const btc::Address kPartnerWallet = btc::Address::derive("partner/wallet/0");
const btc::Address kUser = btc::Address::derive("some-user");

btc::Transaction payout(std::uint64_t nonce) {
  return btc::make_payment(0, 250, btc::Satoshi{250}, kPoolWallet, kUser,
                           btc::Satoshi{1'000'000}, nonce);
}

TEST(SelfInterestPolicy, BoostsOwnWalletTxs) {
  node::Mempool pool(1);
  const auto own = payout(1);
  const auto other = tx_with_rate(1.0, 250, 0, 2);
  pool.accept(own, 0);
  pool.accept(other, 0);

  std::unordered_set<btc::Address> wallets{kPoolWallet};
  PolicyContext ctx;
  ctx.own_wallets = &wallets;

  node::TemplateOptions options;
  SelfInterestPolicy{}.apply(options, pool, ctx);
  ASSERT_EQ(options.fee_deltas.size(), 1u);
  EXPECT_EQ(options.fee_deltas.at(own.id()), kPriorityBoost);
}

TEST(SelfInterestPolicy, BoostsIncomingToo) {
  node::Mempool pool(1);
  const auto deposit = btc::make_payment(0, 250, btc::Satoshi{250}, kUser,
                                         kPoolWallet, btc::Satoshi{500}, 3);
  pool.accept(deposit, 0);
  std::unordered_set<btc::Address> wallets{kPoolWallet};
  PolicyContext ctx;
  ctx.own_wallets = &wallets;
  node::TemplateOptions options;
  SelfInterestPolicy{}.apply(options, pool, ctx);
  EXPECT_TRUE(options.fee_deltas.contains(deposit.id()));
}

TEST(CollusionPolicy, BoostsPartnerWallets) {
  node::Mempool pool(1);
  const auto partner_tx = btc::make_payment(
      0, 250, btc::Satoshi{250}, kPartnerWallet, kUser, btc::Satoshi{500}, 4);
  const auto own_tx = payout(5);
  pool.accept(partner_tx, 0);
  pool.accept(own_tx, 0);

  std::unordered_set<btc::Address> own{kPoolWallet};
  std::unordered_set<btc::Address> partner{kPartnerWallet};
  PolicyContext ctx;
  ctx.own_wallets = &own;
  ctx.partner_wallets.push_back(&partner);

  node::TemplateOptions options;
  CollusionPolicy{}.apply(options, pool, ctx);
  EXPECT_TRUE(options.fee_deltas.contains(partner_tx.id()));
  EXPECT_FALSE(options.fee_deltas.contains(own_tx.id()));
}

TEST(CollusionPolicy, NoPartnersIsNoop) {
  node::Mempool pool(1);
  pool.accept(payout(6), 0);
  PolicyContext ctx;
  node::TemplateOptions options;
  CollusionPolicy{}.apply(options, pool, ctx);
  EXPECT_TRUE(options.fee_deltas.empty());
}

TEST(DarkFeePolicy, BoostsOnlyOwnServiceCustomers) {
  node::Mempool pool(1);
  const auto paid = tx_with_rate(1.0, 250, 0, 7);
  const auto other_service = tx_with_rate(1.0, 250, 0, 8);
  pool.accept(paid, 0);
  pool.accept(other_service, 0);

  AccelerationService service;
  service.accelerate(paid.id(), "BTC.com", btc::Satoshi{100'000});
  service.accelerate(other_service.id(), "AntPool", btc::Satoshi{100'000});

  PolicyContext ctx;
  ctx.pool_name = "BTC.com";
  ctx.acceleration = &service;

  node::TemplateOptions options;
  DarkFeePolicy{}.apply(options, pool, ctx);
  EXPECT_TRUE(options.fee_deltas.contains(paid.id()));
  EXPECT_FALSE(options.fee_deltas.contains(other_service.id()));
}

TEST(DarkFeePolicy, SkipsCommittedCustomers) {
  node::Mempool pool(1);  // tx NOT in mempool
  const auto gone = tx_with_rate(1.0, 250, 0, 9);
  AccelerationService service;
  service.accelerate(gone.id(), "BTC.com", btc::Satoshi{100'000});
  PolicyContext ctx;
  ctx.pool_name = "BTC.com";
  ctx.acceleration = &service;
  node::TemplateOptions options;
  DarkFeePolicy{}.apply(options, pool, ctx);
  EXPECT_TRUE(options.fee_deltas.empty());
}

TEST(CensorshipPolicy, ExcludesBlacklistedWallets) {
  node::Mempool pool(1);
  const btc::Address scam = btc::Address::derive("scam-wallet");
  const auto scam_tx = btc::make_payment(0, 250, btc::Satoshi{2500}, kUser, scam,
                                         btc::Satoshi{500}, 10);
  const auto fine_tx = tx_with_rate(5.0, 250, 0, 11);
  pool.accept(scam_tx, 0);
  pool.accept(fine_tx, 0);

  CensorshipPolicy policy({scam});
  PolicyContext ctx;
  node::TemplateOptions options;
  policy.apply(options, pool, ctx);
  EXPECT_TRUE(options.exclude.contains(scam_tx.id()));
  EXPECT_FALSE(options.exclude.contains(fine_tx.id()));
}

TEST(LowFeeTolerance, LiftsFloorPeriodically) {
  node::Mempool pool(1);
  LowFeeTolerancePolicy policy(/*period=*/4);
  PolicyContext ctx;
  ctx.pool_name = "F2Pool";

  int lifted = 0;
  for (std::uint64_t h = 0; h < 400; ++h) {
    node::TemplateOptions options;
    options.min_rate = btc::FeeRate::from_sat_per_vb(1);
    ctx.height = h;
    policy.apply(options, pool, ctx);
    if (!options.min_rate.valid()) ++lifted;
  }
  // Expect roughly 1 in 4 heights, deterministic given pool/height.
  EXPECT_GT(lifted, 60);
  EXPECT_LT(lifted, 140);
}

TEST(LowFeeTolerance, DeterministicPerPoolAndHeight) {
  LowFeeTolerancePolicy policy(4);
  node::Mempool pool(1);
  PolicyContext ctx;
  ctx.pool_name = "F2Pool";
  ctx.height = 123;
  node::TemplateOptions a, b;
  a.min_rate = b.min_rate = btc::FeeRate::from_sat_per_vb(1);
  policy.apply(a, pool, ctx);
  policy.apply(b, pool, ctx);
  EXPECT_EQ(a.min_rate.valid(), b.min_rate.valid());
}

TEST(CollusionPolicy, NullOrEmptyPartnerEntryIsSkippedNotDereferenced) {
  // Regression: a pool may collude with a wallet-less partner — its slot
  // in partner_wallets is a null (or empty) set. apply() used to walk
  // straight into it.
  node::Mempool pool(1);
  const auto partner_tx = btc::make_payment(
      0, 250, btc::Satoshi{250}, kPartnerWallet, kUser, btc::Satoshi{500}, 40);
  pool.accept(partner_tx, 0);

  std::unordered_set<btc::Address> partner{kPartnerWallet};
  const std::unordered_set<btc::Address> empty;
  PolicyContext ctx;
  ctx.partner_wallets.push_back(nullptr);
  ctx.partner_wallets.push_back(&empty);
  ctx.partner_wallets.push_back(&partner);

  node::TemplateOptions options;
  CollusionPolicy{}.apply(options, pool, ctx);
  ASSERT_EQ(options.fee_deltas.size(), 1u);
  EXPECT_TRUE(options.fee_deltas.contains(partner_tx.id()));
}

TEST(EvasiveSelfInterest, ZeroThetaIsAbsoluteNoop) {
  // theta=0 must not even read the context — it is the attachment that
  // byte-identity with the honest baseline rests on.
  node::Mempool pool(1);
  pool.accept(payout(50), 0);
  PolicyContext ctx;  // own_wallets deliberately null
  node::TemplateOptions options;
  EvasiveSelfInterestPolicy{0.0}.apply(options, pool, ctx);
  EXPECT_TRUE(options.fee_deltas.empty());
  EXPECT_TRUE(options.exclude.empty());
}

TEST(EvasiveSelfInterest, FullThetaMatchesSelfInterestExactly) {
  node::Mempool pool(1);
  for (std::uint64_t n = 0; n < 20; ++n) pool.accept(payout(60 + n), 0);
  pool.accept(tx_with_rate(1.0, 250, 0, 90), 0);

  std::unordered_set<btc::Address> wallets{kPoolWallet};
  PolicyContext ctx;
  ctx.pool_name = "F2Pool";
  ctx.own_wallets = &wallets;

  node::TemplateOptions plain, evasive;
  SelfInterestPolicy{}.apply(plain, pool, ctx);
  EvasiveSelfInterestPolicy{1.0}.apply(evasive, pool, ctx);
  EXPECT_EQ(plain.fee_deltas, evasive.fee_deltas);
  ASSERT_EQ(evasive.fee_deltas.size(), 20u);
}

TEST(EvasiveSelfInterest, PartialThetaThrottlesDeterministically) {
  node::Mempool pool(1);
  constexpr std::uint64_t kOwnTxs = 200;
  for (std::uint64_t n = 0; n < kOwnTxs; ++n) pool.accept(payout(100 + n), 0);

  std::unordered_set<btc::Address> wallets{kPoolWallet};
  PolicyContext ctx;
  ctx.pool_name = "F2Pool";
  ctx.own_wallets = &wallets;

  node::TemplateOptions half;
  EvasiveSelfInterestPolicy{0.5}.apply(half, pool, ctx);
  // Roughly theta of the own-wallet txs retain their boost...
  EXPECT_GT(half.fee_deltas.size(), kOwnTxs / 4);
  EXPECT_LT(half.fee_deltas.size(), 3 * kOwnTxs / 4);
  // ...and every survivor is a strict subset of the full boost set.
  node::TemplateOptions full;
  SelfInterestPolicy{}.apply(full, pool, ctx);
  for (const auto& [id, delta] : half.fee_deltas) {
    EXPECT_TRUE(full.fee_deltas.contains(id));
    EXPECT_EQ(delta, kPriorityBoost);
  }

  // The verdict is keyed on (pool, txid) alone: a different block
  // attempt (height/now) re-boosts the SAME transactions — the throttle
  // must read as indifference, never flicker.
  node::TemplateOptions later;
  ctx.height = 777;
  ctx.now = 123'456;
  EvasiveSelfInterestPolicy{0.5}.apply(later, pool, ctx);
  EXPECT_EQ(half.fee_deltas, later.fee_deltas);

  // A different pool draws a different (deterministic) subset.
  node::TemplateOptions other_pool;
  ctx.pool_name = "AntPool";
  EvasiveSelfInterestPolicy{0.5}.apply(other_pool, pool, ctx);
  EXPECT_NE(half.fee_deltas, other_pool.fee_deltas);
}

TEST(WithholdingPolicy, ExcludesRecentlyBroadcastTxs) {
  // The engine's canonical pool accepts each broadcast when it is
  // issued, so an entry's arrival is its broadcast time.
  node::Mempool pool(1);
  const auto fresh = tx_with_rate(5.0, 250, 0, 200);
  const auto stale = tx_with_rate(5.0, 250, 0, 201);
  const auto at_cutoff = tx_with_rate(5.0, 250, 0, 202);
  pool.accept(fresh, 800);      // within the 300 s assembly lag
  pool.accept(stale, 600);      // already known when assembly started
  pool.accept(at_cutoff, 700);  // known the moment assembly started
  PolicyContext ctx;
  ctx.now = 1000;

  node::TemplateOptions options;
  WithholdingPolicy{300.0}.apply(options, pool, ctx);
  EXPECT_TRUE(options.exclude.contains(fresh.id()));
  EXPECT_FALSE(options.exclude.contains(stale.id()));
  EXPECT_FALSE(options.exclude.contains(at_cutoff.id()));
}

TEST(WithholdingPolicy, ZeroDelayIsNoop) {
  node::Mempool pool(1);
  const auto tx = tx_with_rate(5.0, 250, 0, 210);
  pool.accept(tx, 999);
  PolicyContext ctx;
  ctx.now = 1000;

  node::TemplateOptions zero_delay;
  WithholdingPolicy{0.0}.apply(zero_delay, pool, ctx);
  EXPECT_TRUE(zero_delay.exclude.empty());
}

TEST(FairQueuePolicy, RequestsFifoOrdering) {
  node::Mempool pool(1);
  PolicyContext ctx;
  node::TemplateOptions options;
  EXPECT_FALSE(options.fifo);
  FairQueuePolicy{}.apply(options, pool, ctx);
  EXPECT_TRUE(options.fifo);
  EXPECT_TRUE(options.fee_deltas.empty());
  EXPECT_TRUE(options.exclude.empty());
}

TEST(PolicyNames, AreStable) {
  EXPECT_EQ(SelfInterestPolicy{}.name(), "self-interest");
  EXPECT_EQ(CollusionPolicy{}.name(), "collusion");
  EXPECT_EQ(DarkFeePolicy{}.name(), "dark-fee");
  EXPECT_EQ(CensorshipPolicy{{}}.name(), "censorship");
  EXPECT_EQ(LowFeeTolerancePolicy{}.name(), "low-fee-tolerance");
  EXPECT_EQ(WithholdingPolicy{120.0}.name(), "withholding");
  EXPECT_EQ(EvasiveSelfInterestPolicy{0.5}.name(), "evasive-self-interest");
  EXPECT_EQ(FairQueuePolicy{}.name(), "fair-queue");
}

}  // namespace
}  // namespace cn::sim
