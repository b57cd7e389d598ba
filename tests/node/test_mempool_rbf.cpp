// Conflict handling (replace-by-fee): the Mempool's admission rules for
// transactions that spend an outpoint a queued transaction spends.
#include <gtest/gtest.h>

#include "../helpers.hpp"
#include "node/mempool.hpp"

namespace cn::node {
namespace {

using cn::test::tx_with_rate;

btc::Transaction payment(double rate, std::uint64_t nonce,
                         const std::string& from = "alice") {
  return tx_with_rate(rate, 250, 0, nonce, from);
}

TEST(MempoolRbf, DetectsConflicts) {
  Mempool pool(1);
  const auto original = payment(2.0, 7001);
  pool.accept(original, 0);
  // An unrelated payment conflicts with nothing and replaces nothing.
  EXPECT_EQ(pool.accept(payment(2.0, 7003), 5), AcceptResult::kAccepted);
  EXPECT_EQ(pool.replaced_count(), 0u);
  // A spend of the original's outpoint conflicts with exactly it.
  const auto bump = btc::make_replacement(10, original, btc::Satoshi{5'000}, 7002);
  EXPECT_EQ(pool.accept(bump, 10), AcceptResult::kAccepted);
  EXPECT_EQ(pool.replaced_count(), 1u);
  EXPECT_FALSE(pool.contains(original.id()));
  EXPECT_EQ(pool.size(), 2u);
}

TEST(MempoolRbf, AcceptsValidReplacement) {
  Mempool pool(1);
  const auto original = payment(2.0, 7011);
  pool.accept(original, 0);
  const auto bump = btc::make_replacement(10, original, btc::Satoshi{5'000}, 7012);
  EXPECT_EQ(pool.accept(bump, 10), AcceptResult::kAccepted);
  EXPECT_FALSE(pool.contains(original.id()));
  EXPECT_TRUE(pool.contains(bump.id()));
  EXPECT_EQ(pool.replaced_count(), 1u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(MempoolRbf, RejectsUnderpayingReplacement) {
  Mempool pool(1);
  const auto original = payment(10.0, 7021);  // fee 2500
  pool.accept(original, 0);
  // Same rate, lower absolute fee: must be rejected.
  const auto cheap = btc::make_replacement(10, original, btc::Satoshi{2'000}, 7022);
  EXPECT_EQ(pool.accept(cheap, 10), AcceptResult::kConflictRejected);
  EXPECT_TRUE(pool.contains(original.id()));
}

TEST(MempoolRbf, RejectsEqualFeeRate) {
  Mempool pool(1);
  const auto original = payment(10.0, 7031);  // fee 2500, rate 10
  pool.accept(original, 0);
  // Higher fee but equal rate (vsize identical, fee +0): construct equal.
  const auto same = btc::make_replacement(10, original, original.fee(), 7032);
  EXPECT_EQ(pool.accept(same, 10), AcceptResult::kConflictRejected);
}

TEST(MempoolRbf, ReplacementMustOutbidEvictedDescendants) {
  Mempool pool(0);
  const auto original = payment(2.0, 7041);  // fee 500
  const auto child = btc::make_child_payment(5, 250, btc::Satoshi{10'000}, original,
                                             btc::Address::derive("x"),
                                             btc::Satoshi{100}, 7042);
  pool.accept(original, 0);
  pool.accept(child, 5);
  // Bump pays more than the original alone but less than original+child.
  const auto weak = btc::make_replacement(10, original, btc::Satoshi{2'000}, 7043);
  EXPECT_EQ(pool.accept(weak, 10), AcceptResult::kConflictRejected);
  // A bump that outbids the whole package is accepted and evicts both.
  const auto strong = btc::make_replacement(11, original, btc::Satoshi{11'000}, 7044);
  EXPECT_EQ(pool.accept(strong, 11), AcceptResult::kAccepted);
  EXPECT_FALSE(pool.contains(original.id()));
  EXPECT_FALSE(pool.contains(child.id()));
}

TEST(MempoolRbf, ReplacingParentEvictsDescendants) {
  Mempool pool(0);
  const auto parent = payment(1.0, 7051);
  const auto child = btc::make_child_payment(5, 250, btc::Satoshi{300}, parent,
                                             btc::Address::derive("x"),
                                             btc::Satoshi{100}, 7052);
  const auto grandchild = btc::make_child_payment(6, 250, btc::Satoshi{300}, child,
                                                  btc::Address::derive("y"),
                                                  btc::Satoshi{50}, 7053);
  pool.accept(parent, 0);
  pool.accept(child, 5);
  pool.accept(grandchild, 6);
  const auto bump = btc::make_replacement(10, parent, btc::Satoshi{5'000}, 7054);
  EXPECT_EQ(pool.accept(bump, 10), AcceptResult::kAccepted);
  EXPECT_EQ(pool.size(), 1u);  // child + grandchild evicted with the parent
  EXPECT_EQ(pool.total_vsize(), bump.vsize());
}

TEST(MempoolRbf, ObserverStyleOutOfOrderDelivery) {
  // Replacement may arrive before the original at some nodes; the
  // late-arriving original must then be rejected.
  Mempool pool(1);
  const auto original = payment(2.0, 7221);
  const auto bump = btc::make_replacement(10, original, btc::Satoshi{5'000}, 7222);
  EXPECT_EQ(pool.accept(bump, 10), AcceptResult::kAccepted);
  EXPECT_EQ(pool.accept(original, 12), AcceptResult::kConflictRejected);
  EXPECT_TRUE(pool.contains(bump.id()));
}

}  // namespace
}  // namespace cn::node
