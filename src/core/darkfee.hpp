// SPPE-based detection of dark-fee (accelerated) transactions
// (paper §5.4.2, Table 4).
//
// An accelerated transaction is included near the top of a block although
// its public fee-rate belongs near the bottom, so its SPPE approaches
// +100. The detector buckets a pool's committed transactions by SPPE
// threshold and validates each bucket against the acceleration service's
// public "was this txid accelerated?" query — the same validation loop
// the paper ran against BTC.com's pushtx API. Every function reads the
// dataset's cached SPPE column and txids.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "btc/txid.hpp"
#include "core/audit_dataset.hpp"

namespace cn::core {

/// The public acceleration-query endpoint.
using IsAcceleratedFn = std::function<bool(const btc::Txid&)>;

struct DarkFeeBucket {
  double sppe_threshold = 0.0;  ///< bucket = txs with SPPE >= threshold
  std::uint64_t tx_count = 0;
  std::uint64_t accelerated = 0;

  double accelerated_fraction() const noexcept {
    if (tx_count == 0) return 0.0;
    return static_cast<double>(accelerated) / static_cast<double>(tx_count);
  }
};

/// Table 4 for @p pool: for each threshold (descending, e.g. {100, 99,
/// 90, 50, 1}), how many of the pool's committed transactions have
/// SPPE >= threshold and what fraction of those the service confirms as
/// accelerated. The service is asked at most once per transaction; NaN
/// SPPE (1-tx blocks) never qualifies.
std::vector<DarkFeeBucket> darkfee_buckets(const AuditDataset& dataset, PoolId pool,
                                           const IsAcceleratedFn& is_accelerated,
                                           const std::vector<double>& thresholds);

/// Control: how many of @p sample_size transactions of @p pool, sampled
/// uniformly without replacement, are accelerated (the paper found none
/// in 1000).
std::uint64_t accelerated_in_random_sample(const AuditDataset& dataset, PoolId pool,
                                           const IsAcceleratedFn& is_accelerated,
                                           std::size_t sample_size,
                                           std::uint64_t seed);

/// The audit's Table 4 detector: how many transactions in @p pool's
/// blocks have a cached SPPE meeting @p threshold (NaN entries — 1-tx
/// blocks — never qualify).
std::uint64_t count_accelerated(const AuditDataset& dataset, PoolId pool,
                                double threshold);

}  // namespace cn::core
