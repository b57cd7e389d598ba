// Transaction-acceleration ("dark fee") services — the §5.4 subject.
//
// Several large pools sell off-chain acceleration: the user pays the pool
// out of band, and the pool prioritizes the transaction when it mines.
// The ledger below plays two roles:
//  * simulator ground truth: which transactions were accelerated, through
//    which pool, for how much — *never* visible on-chain;
//  * the public verification endpoint: BTC.com's service lets anyone ask
//    "was this txid accelerated?", which is exactly what the paper used to
//    validate its SPPE-based detector (Table 4). is_accelerated() models
//    that query.
//
// Quotes follow the empirical shape of Figure 14: the acceleration fee is
// a heavy-tailed multiple of the public fee (median ~117x, mean ~566x).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btc/amount.hpp"
#include "btc/transaction.hpp"
#include "util/rng.hpp"

namespace cn::sim {

/// Parameters of the quote distribution (multiplier on the public fee).
struct QuoteModel {
  /// exp(mu) is the median multiplier; paper's Fig 14 reports ~116.64x.
  double log_mu = 4.7589;  // ln(116.64)
  /// Heavy tail: mean/median = exp(sigma^2/2) ≈ 4.85 reproduces the
  /// reported mean of ~566x.
  double log_sigma = 1.777;
  /// Quotes are floored at this many satoshi (services have a minimum).
  std::int64_t min_fee_sat = 10'000;
};

class AccelerationService {
 public:
  explicit AccelerationService(QuoteModel model = {}) : model_(model) {}

  /// Price the service would charge to accelerate @p tx. Deterministic
  /// given the caller's RNG stream.
  btc::Satoshi quote(const btc::Transaction& tx, Rng& rng) const;

  /// Registers an accepted acceleration request.
  void accelerate(const btc::Txid& id, std::string pool, btc::Satoshi paid);

  /// Public query (the Table 4 validation path).
  bool is_accelerated(const btc::Txid& id) const noexcept;

  /// All txids accelerated through @p pool's service (for the pool's own
  /// prioritization pass).
  const std::unordered_set<btc::Txid>& accelerated_via(const std::string& pool) const;

  std::size_t total_accelerated() const noexcept { return paid_.size(); }

  /// Every accelerated txid, sorted by byte order — the deterministic
  /// export form a cached world stores (io::SimWorldInfo).
  std::vector<btc::Txid> all_accelerated_sorted() const;

  /// Total dark fees collected by @p pool (kept even if another pool
  /// mines the transaction — paper §5.4.1).
  btc::Satoshi revenue_of(const std::string& pool) const;

 private:
  QuoteModel model_;
  std::unordered_map<btc::Txid, btc::Satoshi> paid_;  ///< dark fee, off-chain
  std::unordered_map<std::string, std::unordered_set<btc::Txid>> by_pool_;
};

}  // namespace cn::sim
