// Position Prediction Error (paper §4.2.2, Figures 1 and 7).
//
// If a miner followed the GBT fee-rate norm, the position of each
// (non-CPFP) transaction inside a block would be predicted by sorting the
// block's transactions by fee-rate, highest first. PPE quantifies the
// deviation: the mean absolute difference between predicted and observed
// positions, expressed as percentile ranks within the block (so a PPE of
// 2.65 means transactions sit on average 2.65% of a block away from where
// the norm predicts).
#pragma once

#include <optional>
#include <vector>

#include "btc/block.hpp"

namespace cn::core {

class AuditDataset;

/// Predicted positions for the block's transactions under the fee-rate
/// norm. If @p exclude_cpfp, in-block dependent transactions — CPFP
/// children AND the parents they rescue — are removed before ranking:
/// GBT places whole ancestor packages by combined fee-rate, so neither
/// side of a dependent pair has a meaningful *individual* predicted
/// position. Returns, for each retained observed position, the pair
/// (observed index, predicted index) over the retained list.
struct PositionPair {
  std::size_t observed = 0;   ///< index in the retained (post-filter) list
  std::size_t predicted = 0;  ///< norm-predicted index in that list
};
std::vector<PositionPair> predicted_positions(const btc::Block& block,
                                              bool exclude_cpfp);

/// PPE of one block: mean |predicted - observed| percentile rank, in
/// [0, 100]. std::nullopt when the block has fewer than 2 retained
/// transactions (no ordering to audit).
std::optional<double> block_ppe(const btc::Block& block, bool exclude_cpfp = true);

/// PPE per block over a whole chain, in block order: the dataset's
/// cached block_ppe column (filled by block_ppe itself) with the blocks
/// that have no defined PPE skipped.
std::vector<double> chain_ppe(const AuditDataset& dataset);

}  // namespace cn::core
