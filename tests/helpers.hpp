// Shared fixtures/builders for the test suites.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "btc/block.hpp"
#include "btc/chain.hpp"
#include "btc/coinbase_tags.hpp"
#include "btc/transaction.hpp"
#include "core/audit_dataset.hpp"

namespace cn::test {

/// A simple 1-in/1-out payment with the given fee-rate (sat/vB).
inline btc::Transaction tx_with_rate(double sat_per_vb, std::uint32_t vsize = 250,
                                     SimTime issued = 0, std::uint64_t nonce = 0,
                                     std::string from_label = "alice",
                                     std::string to_label = "bob") {
  static std::uint64_t auto_nonce = 1'000'000;
  if (nonce == 0) nonce = ++auto_nonce;
  const auto fee = btc::Satoshi{
      static_cast<std::int64_t>(sat_per_vb * static_cast<double>(vsize))};
  return btc::make_payment(issued, vsize, fee, btc::Address::derive(from_label),
                           btc::Address::derive(to_label),
                           btc::Satoshi{1'000'000}, nonce);
}

/// Builds a block at @p height containing transactions with the given
/// fee-rates, in that observed order.
inline btc::Block block_with_rates(std::uint64_t height,
                                   const std::vector<double>& rates,
                                   const std::string& pool_tag = "/TestPool/",
                                   SimTime mined_at = 600) {
  std::vector<btc::Transaction> txs;
  txs.reserve(rates.size());
  for (std::size_t i = 0; i < rates.size(); ++i) {
    txs.push_back(tx_with_rate(rates[i], 250, 0, height * 10'000 + i + 1));
  }
  btc::Coinbase cb;
  cb.tag = pool_tag;
  cb.reward_address = btc::Address::derive(pool_tag + "/reward");
  cb.reward = btc::Satoshi{625'000'000};
  return btc::Block(height, mined_at, std::move(cb), std::move(txs));
}

/// A first-seen time for every transaction, taken from its txid: feeds
/// an observer log that holds every committed transaction.
inline std::optional<SimTime> seen_at_txid(const btc::Txid& id) {
  return static_cast<SimTime>(id.bytes[0]) * 7 + id.bytes[1];
}

/// The columnar audit view of @p chain, built serially. The default
/// registry attributes no block to any pool.
inline core::AuditDataset dataset_of(const btc::Chain& chain,
                                     const btc::CoinbaseTagRegistry& registry = {}) {
  return core::AuditDataset::build(chain, registry, 1);
}

}  // namespace cn::test
