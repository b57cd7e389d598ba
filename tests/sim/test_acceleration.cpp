#include "sim/acceleration.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "../helpers.hpp"

namespace cn::sim {
namespace {

using cn::test::tx_with_rate;

TEST(Acceleration, RegistersAndQueries) {
  AccelerationService service;
  const auto tx = tx_with_rate(1.0);
  EXPECT_FALSE(service.is_accelerated(tx.id()));
  service.accelerate(tx.id(), "BTC.com", btc::Satoshi{500'000});
  EXPECT_TRUE(service.is_accelerated(tx.id()));
  EXPECT_EQ(service.total_accelerated(), 1u);
  EXPECT_TRUE(service.accelerated_via("BTC.com").contains(tx.id()));
  EXPECT_EQ(service.revenue_of("BTC.com").value, 500'000);
}

TEST(Acceleration, PerPoolSets) {
  AccelerationService service;
  const auto a = tx_with_rate(1.0, 250, 0, 2001);
  const auto b = tx_with_rate(1.0, 250, 0, 2002);
  service.accelerate(a.id(), "BTC.com", btc::Satoshi{1});
  service.accelerate(b.id(), "AntPool", btc::Satoshi{2});
  EXPECT_TRUE(service.accelerated_via("BTC.com").contains(a.id()));
  EXPECT_FALSE(service.accelerated_via("BTC.com").contains(b.id()));
  EXPECT_TRUE(service.accelerated_via("ViaBTC").empty());
}

TEST(Acceleration, RevenueAccrues) {
  AccelerationService service;
  service.accelerate(tx_with_rate(1, 250, 0, 2011).id(), "P", btc::Satoshi{100});
  service.accelerate(tx_with_rate(1, 250, 0, 2012).id(), "P", btc::Satoshi{250});
  EXPECT_EQ(service.revenue_of("P").value, 350);
  EXPECT_EQ(service.revenue_of("Q").value, 0);
}

TEST(Acceleration, QuoteIsMuchHigherThanPublicFee) {
  // Fig 14: median multiplier ~117x, mean ~566x.
  AccelerationService service;
  Rng rng(99);
  const auto tx = tx_with_rate(2.0, 250);  // public fee = 500 sat
  std::vector<double> multipliers;
  for (int i = 0; i < 20'000; ++i) {
    const auto quote = service.quote(tx, rng);
    multipliers.push_back(static_cast<double>(quote.value) /
                          static_cast<double>(tx.fee().value));
  }
  std::sort(multipliers.begin(), multipliers.end());
  const double median = multipliers[multipliers.size() / 2];
  double mean = 0;
  for (double m : multipliers) mean += m;
  mean /= static_cast<double>(multipliers.size());
  EXPECT_GT(median, 60.0);
  EXPECT_LT(median, 220.0);
  EXPECT_GT(mean / median, 2.5);  // heavy right tail
}

TEST(Acceleration, QuoteHasMinimumFee) {
  QuoteModel model;
  model.min_fee_sat = 50'000;
  AccelerationService service(model);
  Rng rng(1);
  const auto dust = tx_with_rate(0.0, 100);  // zero public fee
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(service.quote(dust, rng).value, 50'000);
  }
}

TEST(Acceleration, QuoteCapped) {
  AccelerationService service;
  Rng rng(1);
  const auto whale = btc::make_payment(0, 250, btc::Satoshi{10'000'000'000},
                                       btc::Address::derive("a"),
                                       btc::Address::derive("b"),
                                       btc::Satoshi{1}, 2021);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LE(service.quote(whale, rng).value, static_cast<std::int64_t>(1e13));
  }
}

}  // namespace
}  // namespace cn::sim
