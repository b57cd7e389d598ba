#include "btc/transaction.hpp"

#include <gtest/gtest.h>

namespace cn::btc {
namespace {

const Address kAlice = Address::derive("alice");
const Address kBob = Address::derive("bob");
const Address kCarol = Address::derive("carol");

TEST(Transaction, PaymentBasics) {
  const Transaction tx =
      make_payment(100, 250, Satoshi{500}, kAlice, kBob, Satoshi{10'000}, 1);
  EXPECT_EQ(tx.issued(), 100);
  EXPECT_EQ(tx.vsize(), 250u);
  EXPECT_EQ(tx.fee().value, 500);
  EXPECT_DOUBLE_EQ(tx.fee_rate().sat_per_vbyte(), 2.0);
  EXPECT_EQ(tx.total_output().value, 10'000);
  ASSERT_EQ(tx.inputs().size(), 1u);
  ASSERT_EQ(tx.outputs().size(), 1u);
}

TEST(Transaction, WalletPredicates) {
  const Transaction tx =
      make_payment(0, 250, Satoshi{500}, kAlice, kBob, Satoshi{10'000}, 2);
  EXPECT_TRUE(tx.spends_from(kAlice));
  EXPECT_FALSE(tx.spends_from(kBob));
  EXPECT_TRUE(tx.pays_to(kBob));
  EXPECT_FALSE(tx.pays_to(kAlice));
  EXPECT_TRUE(tx.involves(kAlice));
  EXPECT_TRUE(tx.involves(kBob));
  EXPECT_FALSE(tx.involves(kCarol));
}

TEST(Transaction, DistinctNoncesDistinctIds) {
  const Transaction a =
      make_payment(0, 250, Satoshi{500}, kAlice, kBob, Satoshi{1000}, 1);
  const Transaction b =
      make_payment(0, 250, Satoshi{500}, kAlice, kBob, Satoshi{1000}, 2);
  EXPECT_NE(a.id(), b.id());
}

TEST(Transaction, IdentityIsContentDerived) {
  const Transaction a =
      make_payment(0, 250, Satoshi{500}, kAlice, kBob, Satoshi{1000}, 7);
  const Transaction b =
      make_payment(0, 250, Satoshi{500}, kAlice, kBob, Satoshi{1000}, 7);
  EXPECT_EQ(a.id(), b.id());
}

TEST(Transaction, ChildSpendsParent) {
  const Transaction parent =
      make_payment(0, 250, Satoshi{250}, kAlice, kBob, Satoshi{5000}, 10);
  const Transaction child =
      make_child_payment(60, 200, Satoshi{2000}, parent, kCarol, Satoshi{4000}, 11);
  ASSERT_EQ(child.inputs().size(), 1u);
  EXPECT_EQ(child.inputs()[0].prev_txid, parent.id());
  EXPECT_NE(parent.inputs()[0].prev_txid, child.id());
  // Child's input owner is the parent's output wallet.
  EXPECT_TRUE(child.spends_from(kBob));
}

TEST(Transaction, MultiInputOutput) {
  std::vector<TxInput> ins{TxInput{kNullTxid, 0, kAlice},
                           TxInput{kNullTxid, 1, kBob}};
  std::vector<TxOutput> outs{TxOutput{kCarol, Satoshi{100}},
                             TxOutput{kAlice, Satoshi{50}}};
  const Transaction tx(0, 400, Satoshi{300}, std::move(ins), std::move(outs), 77);
  EXPECT_TRUE(tx.spends_from(kAlice));
  EXPECT_TRUE(tx.spends_from(kBob));
  EXPECT_TRUE(tx.pays_to(kAlice));  // change output
  EXPECT_EQ(tx.total_output().value, 150);
}

TEST(TransactionDeathTest, RejectsZeroVsize) {
  EXPECT_DEATH(
      make_payment(0, 0, Satoshi{1}, kAlice, kBob, Satoshi{1}, 1),
      "vsize_ > 0");
}

TEST(TransactionDeathTest, RejectsNegativeFee) {
  EXPECT_DEATH(
      make_payment(0, 100, Satoshi{-1}, kAlice, kBob, Satoshi{1}, 1),
      "fee_.value >= 0");
}

}  // namespace
}  // namespace cn::btc
