// The paper's statistical test for differential prioritization (§5.1).
//
// Given a set of committed "c-transactions" and a pool m with estimated
// hash share theta0, let y = number of blocks containing at least one
// c-transaction (c-blocks) and x = how many of those m mined. Under the
// null (no differential treatment) x ~ Binomial(y, theta0). One-sided
// exact binomial p-values test acceleration (theta > theta0) and
// deceleration (theta < theta0); the SPPE of the c-transactions inside
// m's blocks corroborates direction (tables 2 and 3).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/audit_dataset.hpp"
#include "core/wallet_inference.hpp"

namespace cn::core {

struct PrioTestResult {
  std::string pool;
  double theta0 = 0.0;       ///< estimated normalized hash rate
  std::uint64_t x = 0;       ///< c-blocks mined by the pool
  std::uint64_t y = 0;       ///< total c-blocks
  double p_accelerate = 1.0; ///< Pr[B >= x] under H0
  double p_decelerate = 1.0; ///< Pr[B <= x] under H0
  double sppe = 0.0;         ///< mean SPPE of c-txs within the pool's blocks
  std::size_t sppe_count = 0;
};

/// Runs the test of pool @p pool on @p c_txs, ascending TxIdx of
/// @p dataset (every AuditDataset list is). theta0 is the pool's share
/// of the dataset's blocks unless @p theta0_override is positive.
PrioTestResult test_differential_prioritization(const AuditDataset& dataset,
                                                PoolId pool,
                                                std::span<const TxIdx> c_txs,
                                                double theta0_override = -1.0);

/// Calls fn(b, run) once per distinct block ordinal b of ascending
/// @p txs, where run is the slice of @p txs committed in block b: one
/// block's transactions are adjacent, so no hash set is needed.
template <typename Fn>
void for_each_c_block(const AuditDataset& dataset, std::span<const TxIdx> txs,
                      Fn&& fn) {
  std::size_t begin = 0;
  while (begin < txs.size()) {
    const std::uint32_t b = dataset.block_of(txs[begin]);
    std::size_t end = begin + 1;
    while (end < txs.size() && dataset.block_of(txs[end]) == b) ++end;
    fn(b, txs.subspan(begin, end - begin));
    begin = end;
  }
}

/// Number of distinct blocks containing at least one of @p txs
/// (ascending TxIdx).
std::uint64_t count_c_blocks(const AuditDataset& dataset, std::span<const TxIdx> txs);

/// Restricts ascending @p txs to blocks within [first_height,
/// last_height] (the Table 3 scam-window slicing).
std::vector<TxIdx> restrict_to_heights(const AuditDataset& dataset,
                                       std::span<const TxIdx> txs,
                                       std::uint64_t first_height,
                                       std::uint64_t last_height);

/// Windowed variant for long horizons with drifting hash rates
/// (§5.1.3): splits the dataset's blocks into @p windows equal runs,
/// tests each, and combines the per-window acceleration p-values with
/// Fisher's method. Windows with no block or no c-block are skipped,
/// and so are windows the pool mined none or all of; 1 when no window is
/// left, as for kNoPoolId.
double windowed_acceleration_p_value(const AuditDataset& dataset, PoolId pool,
                                     std::span<const TxIdx> c_txs,
                                     unsigned windows);

}  // namespace cn::core
