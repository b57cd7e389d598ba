#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "../helpers.hpp"

namespace cn::sim {
namespace {

WorkloadConfig small_config() {
  WorkloadConfig config;
  config.base_tx_per_second = 0.5;
  config.diurnal_amplitude = 0.4;
  return config;
}

TEST(WorkloadRate, DiurnalOscillation) {
  WorkloadGenerator gen(small_config(), Rng(1));
  const double base = 0.5;
  // Peak a quarter-period in, trough at three quarters.
  const double peak = gen.rate_at(kDay / 4);
  const double trough = gen.rate_at(3 * kDay / 4);
  EXPECT_NEAR(peak, base * 1.4, 0.01);
  EXPECT_NEAR(trough, base * 0.6, 0.01);
  EXPECT_LE(peak, gen.max_rate() + 1e-12);
}

TEST(WorkloadRate, BurstsMultiply) {
  WorkloadConfig config = small_config();
  config.diurnal_amplitude = 0.0;
  config.bursts = {BurstEvent{100, 50, 3.0}};
  WorkloadGenerator gen(config, Rng(1));
  EXPECT_NEAR(gen.rate_at(99), 0.5, 1e-9);
  EXPECT_NEAR(gen.rate_at(100), 1.5, 1e-9);
  EXPECT_NEAR(gen.rate_at(149), 1.5, 1e-9);
  EXPECT_NEAR(gen.rate_at(150), 0.5, 1e-9);
  EXPECT_NEAR(gen.max_rate(), 1.5 * (1.0), 1e-9);
}

TEST(WorkloadArrivals, MonotoneAndUnbiasedRate) {
  WorkloadConfig config = small_config();
  config.diurnal_amplitude = 0.0;
  WorkloadGenerator gen(config, Rng(7));
  SimTime t = 0;
  int count = 0;
  while (t < 100'000) {
    const SimTime next = gen.next_arrival(t);
    ASSERT_GE(next, t);  // same-second arrivals are legal
    t = next;
    ++count;
  }
  // Expected ~ 0.5 * 100000 = 50000 arrivals; the continuous internal
  // clock must not introduce rounding bias.
  EXPECT_NEAR(static_cast<double>(count), 50'000.0, 1'500.0);
}

TEST(WorkloadTx, OrdinaryPaymentShape) {
  WorkloadGenerator gen(small_config(), Rng(3));
  WorkloadContext ctx;
  const GeneratedTx g = gen.make_transaction(1000, ctx);
  EXPECT_EQ(g.tx.issued(), 1000);
  EXPECT_GE(g.tx.vsize(), 80u);
  EXPECT_LE(g.tx.vsize(), 12'000u);
  EXPECT_GE(g.tx.fee_rate().sat_per_vbyte(), 0.0);
  EXPECT_FALSE(g.is_scam);
  EXPECT_FALSE(g.is_self_interest);
}

TEST(WorkloadTx, FeesRiseWithCongestion) {
  // Distributional property across many draws (Fig 4c driver).
  WorkloadConfig config = small_config();
  config.below_floor_fraction = 0.0;
  config.cpfp_fraction = 0.0;
  config.accel_request_fraction = 0.0;
  double mean_none = 0.0, mean_high = 0.0;
  const int n = 20'000;
  {
    WorkloadGenerator gen(config, Rng(5));
    WorkloadContext ctx;
    ctx.congestion = node::CongestionLevel::kNone;
    for (int i = 0; i < n; ++i)
      mean_none += gen.make_transaction(0, ctx).tx.fee_rate().sat_per_vbyte();
  }
  {
    WorkloadGenerator gen(config, Rng(5));
    WorkloadContext ctx;
    ctx.congestion = node::CongestionLevel::kHigh;
    for (int i = 0; i < n; ++i)
      mean_high += gen.make_transaction(0, ctx).tx.fee_rate().sat_per_vbyte();
  }
  EXPECT_GT(mean_high / n, 2.0 * (mean_none / n));
}

TEST(WorkloadTx, ScamPaysToScamAddress) {
  WorkloadGenerator gen(small_config(), Rng(9));
  WorkloadContext ctx;
  ctx.make_scam = true;
  ctx.scam_address = btc::Address::derive("scam");
  const GeneratedTx g = gen.make_transaction(0, ctx);
  EXPECT_TRUE(g.is_scam);
  EXPECT_TRUE(g.tx.pays_to(ctx.scam_address));
  EXPECT_GE(g.tx.fee_rate().sat_per_vbyte(), 2.0);  // victims rush
}

TEST(WorkloadTx, SelfInterestInvolvesPoolWallet) {
  WorkloadGenerator gen(small_config(), Rng(11));
  WorkloadContext ctx;
  ctx.make_self_interest = true;
  ctx.pool_wallet = btc::Address::derive("pool-wallet");
  int outgoing = 0, incoming = 0;
  for (int i = 0; i < 200; ++i) {
    const GeneratedTx g = gen.make_transaction(0, ctx);
    EXPECT_TRUE(g.is_self_interest);
    EXPECT_TRUE(g.tx.involves(ctx.pool_wallet));
    if (g.tx.spends_from(ctx.pool_wallet)) ++outgoing;
    if (g.tx.pays_to(ctx.pool_wallet)) ++incoming;
  }
  EXPECT_GT(outgoing, incoming);  // payouts dominate deposits
  EXPECT_GT(incoming, 0);
}

TEST(WorkloadTx, CpfpChildSpendsParent) {
  WorkloadConfig config = small_config();
  config.cpfp_fraction = 1.0;  // always, when a parent is offered
  config.below_floor_fraction = 0.0;
  WorkloadGenerator gen(config, Rng(13));
  const auto parent = cn::test::tx_with_rate(1.0, 250, 0, 3001);
  WorkloadContext ctx;
  ctx.cpfp_parent = &parent;
  const GeneratedTx g = gen.make_transaction(100, ctx);
  EXPECT_TRUE(g.used_cpfp_parent);
  EXPECT_TRUE(std::any_of(g.tx.inputs().begin(), g.tx.inputs().end(),
                          [&](const btc::TxInput& in) { return in.prev_txid == parent.id(); }));
  // Child pays more than the stuck parent.
  EXPECT_GT(g.tx.fee_rate().sat_per_vbyte(), 1.0);
}

TEST(WorkloadTx, BelowFloorFractionProducesLowFee) {
  WorkloadConfig config = small_config();
  config.below_floor_fraction = 1.0;  // force the branch
  config.cpfp_fraction = 0.0;
  WorkloadGenerator gen(config, Rng(17));
  WorkloadContext ctx;
  int zero_fee = 0;
  for (int i = 0; i < 500; ++i) {
    const GeneratedTx g = gen.make_transaction(0, ctx);
    EXPECT_LT(g.tx.fee_rate().sat_per_vbyte(), 1.0);
    if (g.tx.fee().value == 0) ++zero_fee;
  }
  // ~45% should be exactly zero-fee.
  EXPECT_GT(zero_fee, 150);
  EXPECT_LT(zero_fee, 350);
}

TEST(WorkloadTx, AccelerationBuyersOfferTokenFee) {
  WorkloadConfig config = small_config();
  config.accel_request_fraction = 1.0;
  config.below_floor_fraction = 0.0;
  config.cpfp_fraction = 0.0;
  WorkloadGenerator gen(config, Rng(19));
  WorkloadContext ctx;
  ctx.congestion = node::CongestionLevel::kHigh;
  for (int i = 0; i < 100; ++i) {
    const GeneratedTx g = gen.make_transaction(0, ctx);
    EXPECT_TRUE(g.wants_acceleration);
    EXPECT_LT(g.tx.fee_rate().sat_per_vbyte(), 2.0);
  }
}

TEST(WorkloadTx, RbfReplacementConflictsAndPaysMore) {
  WorkloadGenerator gen(small_config(), Rng(29));
  WorkloadContext ctx;
  ctx.rec_p50 = 8.0;
  const auto original = cn::test::tx_with_rate(1.5, 250, 0, 3101);
  for (int i = 0; i < 50; ++i) {
    const auto bump = gen.make_rbf_replacement(100, original, ctx);
    // Same inputs -> conflicts by construction.
    ASSERT_EQ(bump.inputs().size(), original.inputs().size());
    EXPECT_EQ(bump.inputs()[0].prev_txid, original.inputs()[0].prev_txid);
    EXPECT_EQ(bump.inputs()[0].prev_vout, original.inputs()[0].prev_vout);
    // BIP-125: strictly more absolute fee.
    EXPECT_GT(bump.fee().value, original.fee().value);
    EXPECT_NE(bump.id(), original.id());
  }
}

TEST(WorkloadTx, DeterministicAcrossRuns) {
  WorkloadGenerator a(small_config(), Rng(23));
  WorkloadGenerator b(small_config(), Rng(23));
  WorkloadContext ctx;
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(a.make_transaction(i, ctx).tx.id(), b.make_transaction(i, ctx).tx.id());
  }
}

}  // namespace
}  // namespace cn::sim
