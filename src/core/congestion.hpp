// Congestion, fee, and commit-delay analytics (paper §4.1, Figures 3-5,
// 9-12): Mempool occupancy, per-transaction commit delays in blocks, and
// how fee-rates respond to (and buy relief from) congestion. Block times
// and heights come from the AuditDataset; arrivals from the observer's
// first-seen log, joined once by collect_seen_txs.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "btc/txid.hpp"
#include "core/pair_violations.hpp"
#include "node/snapshot.hpp"

namespace cn::core {

class AuditDataset;

/// Looks up an observer's first-seen time for a txid.
using FirstSeenFn = std::function<std::optional<SimTime>(const btc::Txid&)>;

/// Builds the per-committed-transaction view (arrival, fee-rate, block,
/// CPFP flags) used by the violation and delay analyses, in commit order
/// from the dataset's columns. Transactions the observer never saw
/// pending are omitted.
std::vector<SeenTx> collect_seen_txs(const AuditDataset& dataset,
                                     const FirstSeenFn& first_seen);

/// The subset of @p txs pending at time @p t: seen at or before t but
/// committed in a block of @p dataset mined after t.
std::vector<SeenTx> pending_at(std::span<const SeenTx> txs, const AuditDataset& dataset,
                               SimTime t);

/// Commit delay in blocks for each transaction: the number of blocks of
/// @p dataset mined after the observer saw it, up to and including its
/// commit block (1 = "committed in the very next block"). Entries whose
/// commit block predates the arrival (propagation races) are clamped to 1.
std::vector<double> commit_delays_blocks(const AuditDataset& dataset,
                                         std::span<const SeenTx> txs);

/// The paper's fee-rate bands (Fig 5/12): low < 1e-4 BTC/KB (10 sat/vB),
/// high in [1e-4, 1e-3), exorbitant >= 1e-3 BTC/KB (100 sat/vB).
enum class FeeBand { kLow, kHigh, kExorbitant };
FeeBand fee_band(double sat_per_vb) noexcept;

/// Fee-rates (sat/vB) of all transactions.
std::vector<double> all_fee_rates(std::span<const SeenTx> txs);

/// Fee-rates of transactions issued while the Mempool was at @p level
/// (level measured from the observer's snapshot series, with congestion
/// bins relative to @p unit_vsize).
std::vector<double> fee_rates_at_level(std::span<const SeenTx> txs,
                                       const node::SnapshotSeries& series,
                                       std::uint64_t unit_vsize,
                                       node::CongestionLevel level);

/// Delays (blocks) restricted to one fee band. @p delays must be
/// index-aligned with @p txs (as produced by commit_delays_blocks).
std::vector<double> delays_for_band(std::span<const SeenTx> txs,
                                    std::span<const double> delays, FeeBand band);

/// Fee-rates of transactions committed in blocks attributed to @p pool
/// (Fig 10). Uses the block heights recorded in the SeenTx view.
std::vector<double> fee_rates_of_pool(
    std::span<const SeenTx> txs,
    const std::function<bool(std::uint64_t height)>& is_pool_block);

}  // namespace cn::core
