#include "node/block_template.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../helpers.hpp"
#include "obs/registry.hpp"

namespace cn::node {
namespace {

using cn::test::tx_with_rate;

TEST(BlockTemplate, OrdersByFeeRateDescending) {
  Mempool pool(1);
  pool.accept(tx_with_rate(2.0), 0);
  pool.accept(tx_with_rate(9.0), 0);
  pool.accept(tx_with_rate(5.0), 0);

  const BlockTemplate tpl = build_template(pool, TemplateOptions{});
  ASSERT_EQ(tpl.txs.size(), 3u);
  EXPECT_DOUBLE_EQ(tpl.txs[0].fee_rate().sat_per_vbyte(), 9.0);
  EXPECT_DOUBLE_EQ(tpl.txs[1].fee_rate().sat_per_vbyte(), 5.0);
  EXPECT_DOUBLE_EQ(tpl.txs[2].fee_rate().sat_per_vbyte(), 2.0);
}

TEST(BlockTemplate, RespectsVsizeBudget) {
  Mempool pool(1);
  for (int i = 0; i < 10; ++i) pool.accept(tx_with_rate(5.0, 300), 0);
  TemplateOptions options;
  options.max_vsize = 1000;  // fits 3 of 300 vB
  const BlockTemplate tpl = build_template(pool, options);
  EXPECT_EQ(tpl.txs.size(), 3u);
  EXPECT_LE(tpl.total_vsize, 1000u);
}

TEST(BlockTemplate, SkipsTooBigButKeepsFilling) {
  Mempool pool(1);
  pool.accept(tx_with_rate(9.0, 800), 0);  // best rate but huge
  pool.accept(tx_with_rate(5.0, 300), 0);
  pool.accept(tx_with_rate(4.0, 300), 0);
  TemplateOptions options;
  options.max_vsize = 700;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_DOUBLE_EQ(tpl.txs[0].fee_rate().sat_per_vbyte(), 5.0);
}

TEST(BlockTemplate, MinRateFloorExcludes) {
  Mempool pool(0);
  pool.accept(tx_with_rate(0.5), 0);
  pool.accept(tx_with_rate(3.0), 0);
  TemplateOptions options;
  options.min_rate = btc::FeeRate::from_sat_per_vb(1);
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 1u);
  EXPECT_DOUBLE_EQ(tpl.txs[0].fee_rate().sat_per_vbyte(), 3.0);
}

TEST(BlockTemplate, NoFloorIncludesZeroFee) {
  Mempool pool(0);
  pool.accept(tx_with_rate(0.0), 0);
  const BlockTemplate tpl = build_template(pool, TemplateOptions{});
  EXPECT_EQ(tpl.txs.size(), 1u);
}

TEST(BlockTemplate, CpfpPackageRescuesParent) {
  Mempool pool(0);
  const auto parent = tx_with_rate(1.0, 250, 0, 901);  // stuck: low fee
  const auto child = btc::make_child_payment(
      10, 250, btc::Satoshi{5000} /* 20 sat/vB */, parent,
      btc::Address::derive("d"), btc::Satoshi{100}, 902);
  pool.accept(parent, 0);
  pool.accept(child, 10);
  pool.accept(tx_with_rate(5.0, 250, 0, 903), 0);  // competitor

  const BlockTemplate tpl = build_template(pool, TemplateOptions{});
  ASSERT_EQ(tpl.txs.size(), 3u);
  // Package rate = (250 + 5000) / 500 = 10.5 sat/vB > 5.0: parent+child first,
  // parent before child.
  EXPECT_EQ(tpl.txs[0].id(), parent.id());
  EXPECT_EQ(tpl.txs[1].id(), child.id());
  EXPECT_DOUBLE_EQ(tpl.txs[2].fee_rate().sat_per_vbyte(), 5.0);
}

TEST(BlockTemplate, LowFeeChildDoesNotDragParentUp) {
  Mempool pool(0);
  const auto parent = tx_with_rate(4.0, 250, 0, 911);
  const auto child = btc::make_child_payment(
      10, 250, btc::Satoshi{250} /* 1 sat/vB */, parent,
      btc::Address::derive("d"), btc::Satoshi{100}, 912);
  pool.accept(parent, 0);
  pool.accept(child, 10);
  pool.accept(tx_with_rate(3.0, 250, 0, 913), 0);

  const BlockTemplate tpl = build_template(pool, TemplateOptions{});
  ASSERT_EQ(tpl.txs.size(), 3u);
  // Parent alone (4.0) beats the 3.0 competitor; the child (1.0, package
  // 2.5 once parent selected) comes last.
  EXPECT_EQ(tpl.txs[0].id(), parent.id());
  EXPECT_DOUBLE_EQ(tpl.txs[1].fee_rate().sat_per_vbyte(), 3.0);
  EXPECT_EQ(tpl.txs[2].id(), child.id());
}

TEST(BlockTemplate, FeeDeltaBoostsOrdering) {
  Mempool pool(1);
  const auto slow = tx_with_rate(1.0, 250, 0, 921);
  pool.accept(slow, 0);
  pool.accept(tx_with_rate(50.0, 250, 0, 922), 0);

  TemplateOptions options;
  options.fee_deltas[slow.id()] = btc::Satoshi{1'000'000};
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_EQ(tpl.txs[0].id(), slow.id());
  // The *collected* fee stays the public fee.
  EXPECT_EQ(tpl.total_fees.value, static_cast<std::int64_t>(1.0 * 250 + 50.0 * 250));
}

TEST(BlockTemplate, NegativeDeltaDemotes) {
  Mempool pool(1);
  const auto victim = tx_with_rate(50.0, 250, 0, 931);
  pool.accept(victim, 0);
  pool.accept(tx_with_rate(5.0, 250, 0, 932), 0);
  TemplateOptions options;
  options.fee_deltas[victim.id()] = btc::Satoshi{-12'000};
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_EQ(tpl.txs[1].id(), victim.id());
}

TEST(BlockTemplate, ExcludeSetCensors) {
  Mempool pool(1);
  const auto banned = tx_with_rate(50.0, 250, 0, 941);
  pool.accept(banned, 0);
  pool.accept(tx_with_rate(5.0, 250, 0, 942), 0);
  TemplateOptions options;
  options.exclude.insert(banned.id());
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 1u);
  EXPECT_NE(tpl.txs[0].id(), banned.id());
}

TEST(BlockTemplate, ExcludedParentBlocksChild) {
  Mempool pool(0);
  const auto parent = tx_with_rate(2.0, 250, 0, 951);
  const auto child = btc::make_child_payment(
      10, 250, btc::Satoshi{5000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 952);
  pool.accept(parent, 0);
  pool.accept(child, 10);
  TemplateOptions options;
  options.exclude.insert(parent.id());
  const BlockTemplate tpl = build_template(pool, options);
  EXPECT_TRUE(tpl.txs.empty());  // child unmineable without its parent
}

TEST(BlockTemplate, EmptyMempoolYieldsEmptyTemplate) {
  Mempool pool(1);
  const BlockTemplate tpl = build_template(pool, TemplateOptions{});
  EXPECT_TRUE(tpl.txs.empty());
  EXPECT_EQ(tpl.total_vsize, 0u);
}

TEST(BlockTemplate, DeterministicTieBreak) {
  // Two identical-rate txs: selection must be stable across builds.
  Mempool pool(1);
  const auto a = tx_with_rate(5.0, 250, 0, 961);
  const auto b = tx_with_rate(5.0, 250, 0, 962);
  pool.accept(a, 0);
  pool.accept(b, 0);
  const BlockTemplate t1 = build_template(pool, TemplateOptions{});
  const BlockTemplate t2 = build_template(pool, TemplateOptions{});
  ASSERT_EQ(t1.txs.size(), 2u);
  EXPECT_EQ(t1.txs[0].id(), t2.txs[0].id());
  EXPECT_EQ(t1.txs[1].id(), t2.txs[1].id());
  // Lower txid first on ties.
  EXPECT_LT(t1.txs[0].id(), t1.txs[1].id());

  // Equal rates need not share (fee, vsize): 1000 sat / 250 vB ties
  // 2000 sat / 500 vB exactly, and the lower txid goes first whichever
  // the pool accepted first.
  const auto small = tx_with_rate(4.0, 250, 0, 963);
  const auto large = tx_with_rate(4.0, 500, 0, 964);
  ASSERT_EQ(small.fee().value, 1000);
  ASSERT_EQ(large.fee().value, 2000);
  const btc::Txid lower = std::min(small.id(), large.id());
  for (const bool small_first : {true, false}) {
    Mempool split(1);
    split.accept(small_first ? small : large, 0);
    split.accept(small_first ? large : small, 0);
    const BlockTemplate t = build_template(split, TemplateOptions{});
    ASSERT_EQ(t.txs.size(), 2u);
    EXPECT_EQ(t.txs[0].id(), lower);
  }
}

TEST(BlockTemplate, AgingBonusPromotesOldTransactions) {
  Mempool pool(1);
  // Same fee-rate, different ages: without aging the lower txid wins the
  // tie; with aging the older one must come first regardless.
  const auto old_tx = tx_with_rate(5.0, 250, 0, 971);
  const auto new_tx = tx_with_rate(5.0, 250, 0, 972);
  pool.accept(old_tx, /*arrival=*/0);
  pool.accept(new_tx, /*arrival=*/7200);  // two hours later

  TemplateOptions options;
  options.age_weight_per_hour = 0.10;
  options.now = 7200;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_EQ(tpl.txs[0].id(), old_tx.id());
}

TEST(BlockTemplate, AgingBonusCanOvertakeHigherFee) {
  Mempool pool(1);
  const auto stale = tx_with_rate(4.0, 250, 0, 973);   // 10h old
  const auto fresh = tx_with_rate(5.0, 250, 0, 974);   // brand new
  pool.accept(stale, 0);
  pool.accept(fresh, 10 * 3600);
  TemplateOptions options;
  options.age_weight_per_hour = 0.10;  // stale effective: 4 * 2.0 = 8 > 5
  options.now = 10 * 3600;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_EQ(tpl.txs[0].id(), stale.id());
  // Collected fees remain the real ones.
  EXPECT_EQ(tpl.total_fees.value, static_cast<std::int64_t>((4.0 + 5.0) * 250));
}

TEST(BlockTemplate, ZeroAgingWeightIsPureFeeRate) {
  Mempool pool(1);
  const auto stale = tx_with_rate(4.0, 250, 0, 975);
  const auto fresh = tx_with_rate(5.0, 250, 0, 976);
  pool.accept(stale, 0);
  pool.accept(fresh, 100 * 3600);
  TemplateOptions options;  // age_weight_per_hour = 0
  options.now = 100 * 3600;
  const BlockTemplate tpl = build_template(pool, options);
  EXPECT_EQ(tpl.txs[0].id(), fresh.id());
}

TEST(BlockTemplate, FifoOrdersByArrivalNotFeeRate) {
  // BitcoinF-style fair queue: first seen, first committed — fee rate
  // only matters for clearing the floor, never for the order.
  Mempool pool(1);
  const auto late_rich = tx_with_rate(9.0, 250, 0, 981);
  const auto early_poor = tx_with_rate(2.0, 250, 0, 982);
  const auto middle = tx_with_rate(5.0, 250, 0, 983);
  pool.accept(late_rich, 30);
  pool.accept(early_poor, 10);
  pool.accept(middle, 20);

  TemplateOptions options;
  options.fifo = true;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 3u);
  EXPECT_EQ(tpl.txs[0].id(), early_poor.id());
  EXPECT_EQ(tpl.txs[1].id(), middle.id());
  EXPECT_EQ(tpl.txs[2].id(), late_rich.id());
}

TEST(BlockTemplate, FifoStillEnforcesFloorAndCensorship) {
  // "Above the floor": a sub-floor transaction does not ride in on
  // arrival order, and the exclude set still censors.
  Mempool pool(0);
  const auto dust = tx_with_rate(0.5, 250, 0, 984);
  const auto banned = tx_with_rate(5.0, 250, 0, 985);
  const auto fine = tx_with_rate(3.0, 250, 0, 986);
  pool.accept(dust, 0);
  pool.accept(banned, 10);
  pool.accept(fine, 20);

  TemplateOptions options;
  options.fifo = true;
  options.min_rate = btc::FeeRate::from_sat_per_vb(1);
  options.exclude.insert(banned.id());
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 1u);
  EXPECT_EQ(tpl.txs[0].id(), fine.id());
}

TEST(BlockTemplate, FifoTieBreaksDeterministicallyAndKeepsPackages) {
  Mempool pool(0);
  // Equal arrivals: lower txid first, stable across builds.
  const auto a = tx_with_rate(5.0, 250, 0, 987);
  const auto b = tx_with_rate(5.0, 250, 0, 988);
  pool.accept(a, 0);
  pool.accept(b, 0);
  // A CPFP pair arriving earlier than either: parent must still precede
  // its child in the committed order.
  const auto parent = tx_with_rate(1.0, 250, 0, 989);
  const auto child = btc::make_child_payment(
      5, 250, btc::Satoshi{5000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 990);
  pool.accept(parent, 0);
  pool.accept(child, 5);

  TemplateOptions options;
  options.fifo = true;
  const BlockTemplate t1 = build_template(pool, options);
  const BlockTemplate t2 = build_template(pool, options);
  ASSERT_EQ(t1.txs.size(), 4u);
  for (std::size_t i = 0; i < t1.txs.size(); ++i) {
    EXPECT_EQ(t1.txs[i].id(), t2.txs[i].id()) << i;
  }
  std::size_t parent_at = 99, child_at = 99, a_at = 99, b_at = 99;
  for (std::size_t i = 0; i < t1.txs.size(); ++i) {
    if (t1.txs[i].id() == parent.id()) parent_at = i;
    if (t1.txs[i].id() == child.id()) child_at = i;
    if (t1.txs[i].id() == a.id()) a_at = i;
    if (t1.txs[i].id() == b.id()) b_at = i;
  }
  EXPECT_LT(parent_at, child_at);
  EXPECT_EQ(a_at < b_at, a.id() < b.id());
}

TEST(BlockTemplate, FifoRespectsVsizeBudget) {
  Mempool pool(1);
  for (int i = 0; i < 10; ++i) {
    pool.accept(tx_with_rate(5.0, 300, 0, 991 + i), i);
  }
  TemplateOptions options;
  options.fifo = true;
  options.max_vsize = 1000;  // fits 3 of 300 vB
  const BlockTemplate tpl = build_template(pool, options);
  EXPECT_EQ(tpl.txs.size(), 3u);
  EXPECT_LE(tpl.total_vsize, 1000u);
}

// The stop boundary: building ends only once no queued transaction could
// still fit. These cases put the last possible selection right at it.

TEST(BlockTemplate, LowestRateEntryFillsTheLastGap) {
  Mempool pool(0);
  const auto first = tx_with_rate(9.0, 400, 0, 1101);
  pool.accept(first, 0);
  pool.accept(tx_with_rate(8.0, 400, 0, 1102), 0);  // no longer fits
  const auto last = tx_with_rate(1.0, 100, 0, 1103);  // exactly fills the gap
  pool.accept(last, 0);
  TemplateOptions options;
  options.max_vsize = 500;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_EQ(tpl.txs[0].id(), first.id());
  EXPECT_EQ(tpl.txs[1].id(), last.id());
  EXPECT_EQ(tpl.total_vsize, 500u);
}

TEST(BlockTemplate, CpfpPackageTooBigForTheGapIsSkipped) {
  Mempool pool(0);
  const auto filler = tx_with_rate(20.0, 300, 0, 1111);
  const auto parent = tx_with_rate(1.0, 300, 0, 1112);
  // Package rate (300 + 3000) / 400 = 8.25: it would outrank `small`, and
  // the child alone (100 vB) fits the 200 vB gap, but the package does not.
  const auto child = btc::make_child_payment(
      10, 100, btc::Satoshi{3000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 1113);
  const auto small = tx_with_rate(0.5, 100, 0, 1114);
  pool.accept(filler, 0);
  pool.accept(parent, 0);
  pool.accept(child, 10);
  pool.accept(small, 0);
  TemplateOptions options;
  options.max_vsize = 500;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_EQ(tpl.txs[0].id(), filler.id());
  EXPECT_EQ(tpl.txs[1].id(), small.id());
}

TEST(BlockTemplate, FifoOverfullPoolKeepsFillingAfterASkip) {
  Mempool pool(0);
  const auto a = tx_with_rate(1.0, 300, 0, 1121);
  const auto b = tx_with_rate(9.0, 300, 0, 1122);
  const auto c = tx_with_rate(2.0, 300, 0, 1123);  // skipped: 100 vB left
  const auto d = tx_with_rate(0.5, 100, 0, 1124);
  pool.accept(a, 10);
  pool.accept(b, 20);
  pool.accept(c, 30);
  pool.accept(d, 40);
  TemplateOptions options;
  options.fifo = true;
  options.max_vsize = 700;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 3u);
  EXPECT_EQ(tpl.txs[0].id(), a.id());
  EXPECT_EQ(tpl.txs[1].id(), b.id());
  EXPECT_EQ(tpl.txs[2].id(), d.id());
}

TEST(BlockTemplate, AgingOverfullPoolKeepsFillingAfterASkip) {
  // Effective rates at now = 10 h with 0.5/hour: a 2.0 * 6 = 12,
  // b 10.0 * 1 = 10, c 5.0 * 3.5 = 17.5, d 1.0 * 6 = 6, e 8.0 * 1 = 8.
  Mempool pool(0);
  const auto a = tx_with_rate(2.0, 300, 0, 1131);
  const auto b = tx_with_rate(10.0, 300, 0, 1132);
  const auto c = tx_with_rate(5.0, 200, 0, 1133);
  const auto d = tx_with_rate(1.0, 100, 0, 1134);
  const auto e = tx_with_rate(8.0, 250, 0, 1135);
  pool.accept(a, 0);
  pool.accept(b, 10 * 3600);
  pool.accept(c, 5 * 3600);
  pool.accept(d, 0);
  pool.accept(e, 10 * 3600);
  TemplateOptions options;
  options.age_weight_per_hour = 0.5;
  options.now = 10 * 3600;
  options.max_vsize = 700;
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 3u);
  EXPECT_EQ(tpl.txs[0].id(), c.id());
  EXPECT_EQ(tpl.txs[1].id(), a.id());
  EXPECT_EQ(tpl.txs[2].id(), d.id());  // b and e no longer fit
}

TEST(BlockTemplate, ExcludedSmallestTransactionStaysOut) {
  Mempool pool(0);
  const auto big = tx_with_rate(9.0, 400, 0, 1141);
  const auto tiny = tx_with_rate(3.0, 50, 0, 1142);
  const auto small = tx_with_rate(0.5, 100, 0, 1143);
  pool.accept(big, 0);
  pool.accept(tx_with_rate(8.0, 400, 0, 1144), 0);
  pool.accept(tiny, 0);
  pool.accept(small, 0);
  TemplateOptions options;
  options.exclude.insert(tiny.id());
  options.max_vsize = 500;
  BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 2u);
  EXPECT_EQ(tpl.txs[0].id(), big.id());
  EXPECT_EQ(tpl.txs[1].id(), small.id());
  // A gap only the excluded transaction would fit stays empty.
  options.max_vsize = 480;
  tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 1u);
  EXPECT_EQ(tpl.txs[0].id(), big.id());
}

double counter(const char* name) {
  for (const obs::MetricValue& m : obs::snapshot()) {
    if (m.name == name) return m.value;
  }
  return 0.0;
}

TEST(BlockTemplate, StopsOnceNothingElseCanFit) {
  // 200 queued 250 vB transactions, room for 4: once the fourth is in,
  // no queued transaction fits, so the build ends after four pops
  // instead of draining the other 196.
  Mempool pool(0);
  for (int i = 0; i < 200; ++i) pool.accept(tx_with_rate(1.0 + i, 250, 0, 1200 + i), 0);
  TemplateOptions options;
  options.max_vsize = 1000;
  const double builds = counter("node.template.builds");
  const double seeded = counter("node.template.seeded");
  const double pops = counter("node.template.heap_pops");
  const BlockTemplate tpl = build_template(pool, options);
  ASSERT_EQ(tpl.txs.size(), 4u);
  EXPECT_DOUBLE_EQ(tpl.txs.back().fee_rate().sat_per_vbyte(), 197.0);
  EXPECT_EQ(counter("node.template.builds") - builds, 1.0);
  EXPECT_EQ(counter("node.template.seeded") - seeded, 200.0);
  EXPECT_EQ(counter("node.template.heap_pops") - pops, 4.0);
}

// Property: for independent (no-dependency) transactions, the template is
// exactly sorted by fee-rate and fills greedily.
class GreedyProperty : public ::testing::TestWithParam<int> {};

TEST_P(GreedyProperty, SortedAndMaximal) {
  Mempool pool(1);
  unsigned state = static_cast<unsigned>(GetParam()) * 2654435761u;
  for (int i = 0; i < 60; ++i) {
    state = state * 1664525u + 1013904223u;
    const double rate = 1.0 + static_cast<double>(state % 1000) / 10.0;
    pool.accept(tx_with_rate(rate, 250, 0, 10'000 + GetParam() * 100 + i), 0);
  }
  TemplateOptions options;
  options.max_vsize = 250 * 40;  // room for 40 of 60
  const BlockTemplate tpl = build_template(pool, options);
  EXPECT_EQ(tpl.txs.size(), 40u);
  for (std::size_t i = 1; i < tpl.txs.size(); ++i) {
    EXPECT_GE(tpl.txs[i - 1].fee_rate().sat_per_vbyte(),
              tpl.txs[i].fee_rate().sat_per_vbyte());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyProperty, ::testing::Range(1, 9));

}  // namespace
}  // namespace cn::node
