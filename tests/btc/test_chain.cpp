#include "btc/chain.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::btc {
namespace {

using cn::test::block_with_rates;

TEST(Chain, AppendsAndIndexes) {
  Chain chain(100);
  chain.append(block_with_rates(100, {5.0, 3.0}));
  chain.append(block_with_rates(101, {7.0}));
  EXPECT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain.next_height(), 102u);
  EXPECT_EQ(chain.total_tx_count(), 3u);
  EXPECT_EQ(chain.front().height(), 100u);
  EXPECT_EQ(chain.back().height(), 101u);
}

TEST(Chain, AtHeight) {
  Chain chain(10);
  chain.append(block_with_rates(10, {1.0}));
  chain.append(block_with_rates(11, {2.0}));
  chain.append(block_with_rates(12, {3.0}));
  EXPECT_EQ(chain.at_height(11).height(), 11u);
  EXPECT_EQ(chain.at_height(12).txs()[0].fee_rate().sat_per_vbyte(), 3.0);
}

TEST(Chain, EmptyBlockCount) {
  Chain chain(1);
  chain.append(block_with_rates(1, {}));
  chain.append(block_with_rates(2, {1.0}));
  chain.append(block_with_rates(3, {}));
  EXPECT_EQ(chain.empty_block_count(), 2u);
}

TEST(Chain, DefaultConstructedAdoptsFirstHeight) {
  Chain chain;
  chain.append(block_with_rates(777, {1.0}));
  EXPECT_EQ(chain.next_height(), 778u);
  EXPECT_EQ(chain.front().height(), 777u);
}

TEST(ChainDeathTest, RejectsHeightGap) {
  Chain chain(10);
  chain.append(block_with_rates(10, {1.0}));
  EXPECT_DEATH(chain.append(block_with_rates(12, {1.0})), "next_height_");
}

}  // namespace
}  // namespace cn::btc
