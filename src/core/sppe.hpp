// Signed Position Prediction Error (paper §5.1, §5.4.2).
//
// Per-transaction: SPPE = predicted percentile rank - observed percentile
// rank, where the prediction orders ALL of the block's transactions by
// fee-rate. A large positive SPPE means the transaction sits near the top
// of the block although its public fee-rate says it belongs near the
// bottom — the signature of off-norm prioritization (selfish interest,
// collusion, or a dark acceleration fee).
#pragma once

#include <span>
#include <vector>

#include "btc/block.hpp"
#include "core/audit_dataset.hpp"
#include "core/wallet_inference.hpp"

namespace cn::core {

/// SPPE (in percentile-rank points, range [-100, 100]) for every position
/// of @p block, indexed by observed position. Empty for blocks with fewer
/// than 2 transactions.
std::vector<double> block_sppe(const btc::Block& block);

/// Per-transaction SPPE of a TxIdx selection, read from the dataset's
/// cached column and optionally restricted to blocks of @p pool
/// (kNoPoolId = no restriction). Order follows @p txs; transactions of
/// 1-tx blocks (NaN, no SPPE) are skipped. Useful for uncertainty
/// estimates (bootstrap) on top of the mean.
std::vector<double> sppe_values(const AuditDataset& dataset,
                                std::span<const TxIdx> txs, PoolId pool);

/// Mean of sppe_values. Returns 0 with *count = 0 when no transaction
/// qualifies.
double mean_sppe(const AuditDataset& dataset, std::span<const TxIdx> txs,
                 PoolId pool, std::size_t* count = nullptr);

}  // namespace cn::core
