#include "node/mempool.hpp"

#include <gtest/gtest.h>

#include "../helpers.hpp"

namespace cn::node {
namespace {

using cn::test::tx_with_rate;

TEST(Mempool, AcceptAndSize) {
  Mempool pool(1);
  EXPECT_TRUE(pool.empty());
  const auto tx = tx_with_rate(5.0, 300);
  EXPECT_EQ(pool.accept(tx, 10), AcceptResult::kAccepted);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.total_vsize(), 300u);
  EXPECT_TRUE(pool.contains(tx.id()));
}

TEST(Mempool, RejectsDuplicates) {
  Mempool pool(1);
  const auto tx = tx_with_rate(5.0);
  EXPECT_EQ(pool.accept(tx, 10), AcceptResult::kAccepted);
  EXPECT_EQ(pool.accept(tx, 11), AcceptResult::kDuplicate);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, EnforcesMinRelayFee) {
  Mempool pool(1);  // 1 sat/vB floor (norm III)
  EXPECT_EQ(pool.accept(tx_with_rate(0.5), 0), AcceptResult::kBelowMinFeeRate);
  EXPECT_EQ(pool.accept(tx_with_rate(0.0), 0), AcceptResult::kBelowMinFeeRate);
  EXPECT_EQ(pool.accept(tx_with_rate(1.0), 0), AcceptResult::kAccepted);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, ZeroFloorAcceptsEverything) {
  Mempool pool(0);  // data set B configuration
  EXPECT_EQ(pool.accept(tx_with_rate(0.0), 0), AcceptResult::kAccepted);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(Mempool, RemoveUpdatesAccounting) {
  Mempool pool(1);
  const auto a = tx_with_rate(5.0, 300);
  const auto b = tx_with_rate(3.0, 200);
  pool.accept(a, 0);
  pool.accept(b, 0);
  EXPECT_TRUE(pool.remove(a.id()));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.total_vsize(), 200u);
  EXPECT_FALSE(pool.remove(a.id()));  // already gone
}

TEST(Mempool, FindReturnsEntryWithArrival) {
  Mempool pool(1);
  const auto tx = tx_with_rate(2.0);
  pool.accept(tx, 1234);
  const MempoolEntry* entry = pool.find(tx.id());
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->arrival, 1234);
  EXPECT_EQ(pool.find(btc::Txid::hash_of("missing")), nullptr);
}

TEST(Mempool, EntriesByArrivalSorted) {
  Mempool pool(1);
  pool.accept(tx_with_rate(1.0, 250, 30), 30);
  pool.accept(tx_with_rate(2.0, 250, 10), 10);
  pool.accept(tx_with_rate(3.0, 250, 20), 20);
  const auto entries = pool.entries_by_arrival();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0]->arrival, 10);
  EXPECT_EQ(entries[1]->arrival, 20);
  EXPECT_EQ(entries[2]->arrival, 30);
}

TEST(Mempool, AncestorsAndChildren) {
  Mempool pool(1);
  const auto parent = tx_with_rate(1.0, 250, 0, 801);
  const auto child = btc::make_child_payment(
      10, 200, btc::Satoshi{1000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 802);
  const auto grandchild = btc::make_child_payment(
      20, 200, btc::Satoshi{1500}, child, btc::Address::derive("e"),
      btc::Satoshi{50}, 803);
  pool.accept(parent, 0);
  pool.accept(child, 10);
  pool.accept(grandchild, 20);

  const auto anc = pool.ancestors_of(grandchild.id());
  EXPECT_EQ(anc.size(), 2u);  // child + parent

  // The child's one input links it to the parent.
  const auto links = pool.parents_of(pool.handle_of(child.id()));
  ASSERT_EQ(links.size(), 1u);
  EXPECT_EQ(links[0], pool.handle_of(parent.id()));
}

TEST(Mempool, AncestorsStopAtConfirmedBoundary) {
  Mempool pool(1);
  const auto parent = tx_with_rate(1.0, 250, 0, 811);
  const auto child = btc::make_child_payment(
      10, 200, btc::Satoshi{1000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 812);
  // Parent is NOT in the mempool (already confirmed).
  pool.accept(child, 10);
  EXPECT_TRUE(pool.ancestors_of(child.id()).empty());
}

TEST(Mempool, RemoveCleansChildIndex) {
  Mempool pool(1);
  const auto parent = tx_with_rate(1.0, 250, 0, 821);
  const auto child = btc::make_child_payment(
      10, 200, btc::Satoshi{1000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 822);
  pool.accept(parent, 0);
  pool.accept(child, 10);
  pool.remove(child.id());
  // An unrelated payment reuses the child's slot. Had the parent kept its
  // link to that slot, replacing the parent would evict the payment too.
  const auto other = tx_with_rate(3.0, 250, 0, 823);
  pool.accept(other, 12);
  const auto bump = btc::make_replacement(20, parent, btc::Satoshi{5'000}, 824);
  ASSERT_EQ(pool.accept(bump, 20), AcceptResult::kAccepted);
  EXPECT_TRUE(pool.contains(other.id()));
  EXPECT_EQ(pool.size(), 2u);
}

// Gossip can deliver a child before its parent. Links follow outpoints,
// not arrival order: once the late parent is queued, the early child is
// its child (ReplacingLateParentEvictsEarlyChild checks the descendant
// side). The child's in_pool_parents counter counts only parents queued
// when the child was accepted, so it stays 0.
TEST(Mempool, LateParentAdoptsEarlyChild) {
  Mempool pool(0);
  const auto parent = tx_with_rate(1.0, 250, 0, 831);
  const auto child = btc::make_child_payment(
      10, 200, btc::Satoshi{1000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 832);
  ASSERT_EQ(pool.accept(child, 10), AcceptResult::kAccepted);
  ASSERT_EQ(pool.accept(parent, 12), AcceptResult::kAccepted);

  EXPECT_EQ(pool.parents_of(pool.handle_of(child.id()))[0],
            pool.handle_of(parent.id()));
  const auto anc = pool.ancestors_of(child.id());
  ASSERT_EQ(anc.size(), 1u);
  EXPECT_EQ(anc[0]->tx.id(), parent.id());
  EXPECT_EQ(pool.find(child.id())->in_pool_parents, 0u);
}

TEST(Mempool, ReplacingLateParentEvictsEarlyChild) {
  Mempool pool(0);
  const auto parent = tx_with_rate(1.0, 250, 0, 833);  // fee 250
  const auto child = btc::make_child_payment(
      10, 200, btc::Satoshi{1000}, parent, btc::Address::derive("d"),
      btc::Satoshi{100}, 834);
  ASSERT_EQ(pool.accept(child, 10), AcceptResult::kAccepted);
  ASSERT_EQ(pool.accept(parent, 12), AcceptResult::kAccepted);
  // Outbids parent + child (1250 sat), so it replaces both.
  const auto bump = btc::make_replacement(20, parent, btc::Satoshi{5'000}, 835);
  ASSERT_EQ(pool.accept(bump, 20), AcceptResult::kAccepted);
  EXPECT_FALSE(pool.contains(parent.id()));
  EXPECT_FALSE(pool.contains(child.id()));
  EXPECT_TRUE(pool.contains(bump.id()));
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.total_vsize(), bump.vsize());
}

TEST(Mempool, LateParentLeavingCostsTheChildACountedParent) {
  // p1 is queued when the child arrives and is counted; p2 arrives later
  // and is linked but not counted. Every departing parent decrements the
  // counter (saturating at 0), so p2 leaving zeroes it while p1 is still
  // queued. The template builder's no-ancestry fast path keys on this
  // counter, so its exact value is part of the world-bytes contract.
  Mempool pool(0);
  const auto p1 = tx_with_rate(1.0, 250, 0, 841);
  const auto p2 = tx_with_rate(1.0, 250, 0, 842);
  const btc::Transaction child(
      10, 300, btc::Satoshi{3000},
      {btc::TxInput{p1.id(), 0, p1.outputs()[0].to},
       btc::TxInput{p2.id(), 0, p2.outputs()[0].to}},
      {btc::TxOutput{btc::Address::derive("d"), btc::Satoshi{100}}}, 843);
  ASSERT_EQ(pool.accept(p1, 0), AcceptResult::kAccepted);
  ASSERT_EQ(pool.accept(child, 10), AcceptResult::kAccepted);
  EXPECT_EQ(pool.find(child.id())->in_pool_parents, 1u);
  ASSERT_EQ(pool.accept(p2, 12), AcceptResult::kAccepted);
  EXPECT_EQ(pool.find(child.id())->in_pool_parents, 1u);
  EXPECT_EQ(pool.ancestors_of(child.id()).size(), 2u);
  EXPECT_EQ(pool.parents_of(pool.handle_of(child.id()))[1], pool.handle_of(p2.id()));

  ASSERT_TRUE(pool.remove(p2.id()));
  EXPECT_EQ(pool.find(child.id())->in_pool_parents, 0u);
  const auto anc = pool.ancestors_of(child.id());
  ASSERT_EQ(anc.size(), 1u);
  EXPECT_EQ(anc[0]->tx.id(), p1.id());
  const auto links = pool.parents_of(pool.handle_of(child.id()));
  EXPECT_EQ(links[0], pool.handle_of(p1.id()));
  EXPECT_EQ(links[1], kNoMempoolHandle);
}

TEST(Mempool, ForEachVisitsAll) {
  Mempool pool(1);
  for (int i = 0; i < 10; ++i) pool.accept(tx_with_rate(1.0 + i), 0);
  int visits = 0;
  pool.for_each_entry([&](const MempoolEntry&) { ++visits; });
  EXPECT_EQ(visits, 10);
}

// The pool has no size cap: nothing is evicted to make room.
TEST(MempoolEviction, UnlimitedByDefault) {
  Mempool pool(1);
  for (int i = 0; i < 100; ++i) pool.accept(tx_with_rate(1.0 + i, 250, 0, 7100 + i), 0);
  EXPECT_EQ(pool.size(), 100u);
  EXPECT_EQ(pool.total_vsize(), 100u * 250u);
}

}  // namespace
}  // namespace cn::node
