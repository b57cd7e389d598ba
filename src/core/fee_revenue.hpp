// Miner revenue decomposition (paper Table 5 and §4.1.2): what share of
// each block's total reward (subsidy + fees) comes from fees.
//
// Scaled-down simulations shrink blocks (and with them total fees) by
// some factor relative to the real 1 MB network; passing that factor as
// @p subsidy_scale shrinks the subsidy consistently, so the *share* is
// directly comparable to the paper's.
#pragma once

#include <cstdint>
#include <vector>

#include "stats/descriptive.hpp"

namespace cn::core {

class AuditDataset;

/// Per-block fee share of total revenue, in percent, from the dataset's
/// block fee totals: fees / (fees + subsidy(height) * subsidy_scale) * 100.
std::vector<double> per_block_fee_share_percent(const AuditDataset& dataset,
                                                double subsidy_scale = 1.0);

/// Summary of the above (the mean/std/min/percentiles/max columns of
/// Table 5).
stats::Summary fee_share_summary(const AuditDataset& dataset,
                                 double subsidy_scale = 1.0);

/// Fee share restricted to a height range (inclusive) — the paper's
/// per-year and post-halving slices.
stats::Summary fee_share_summary(const AuditDataset& dataset,
                                 std::uint64_t first_height,
                                 std::uint64_t last_height,
                                 double subsidy_scale = 1.0);

}  // namespace cn::core
