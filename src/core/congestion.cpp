#include "core/congestion.hpp"

#include <algorithm>

#include "core/audit_dataset.hpp"
#include "util/assert.hpp"

namespace cn::core {

std::vector<SeenTx> collect_seen_txs(const AuditDataset& dataset,
                                     const FirstSeenFn& first_seen) {
  std::vector<SeenTx> out;
  out.reserve(dataset.tx_count());
  const std::span<const btc::Txid> ids = dataset.txids();
  const std::span<const double> rates = dataset.fee_rate();
  const std::span<const std::uint8_t> flags = dataset.tx_flags();
  const std::span<const std::uint64_t> heights = dataset.block_heights();
  for (TxIdx t = 0; t < static_cast<TxIdx>(dataset.tx_count()); ++t) {
    const auto seen = first_seen(ids[t]);
    if (!seen.has_value()) continue;
    out.push_back({*seen, rates[t], heights[dataset.block_of(t)],
                   (flags[t] & kTxCpfpChild) != 0, (flags[t] & kTxCpfpParent) != 0});
  }
  return out;
}

std::vector<SeenTx> pending_at(std::span<const SeenTx> txs, const AuditDataset& dataset,
                               SimTime t) {
  // Heights are contiguous, so a height indexes the block-time column.
  const std::span<const SimTime> mined_at = dataset.block_mined_at();
  const std::uint64_t first_height = dataset.empty() ? 0 : dataset.block_heights()[0];
  std::vector<SeenTx> out;
  for (const SeenTx& tx : txs) {
    if (tx.first_seen > t) continue;
    CN_ASSERT(tx.block_height - first_height < mined_at.size());
    if (mined_at[tx.block_height - first_height] <= t) continue;
    out.push_back(tx);
  }
  return out;
}

std::vector<double> commit_delays_blocks(const AuditDataset& dataset,
                                         std::span<const SeenTx> txs) {
  // Block times are strictly increasing.
  const std::span<const SimTime> block_times = dataset.block_mined_at();
  const std::uint64_t first_height = dataset.empty() ? 0 : dataset.block_heights()[0];

  std::vector<double> out;
  out.reserve(txs.size());
  for (const SeenTx& tx : txs) {
    // Index of the first block mined strictly after the arrival.
    const auto it = std::upper_bound(block_times.begin(), block_times.end(),
                                     tx.first_seen);
    const auto first_candidate =
        first_height + static_cast<std::uint64_t>(it - block_times.begin());
    double delay = 1.0;
    if (tx.block_height >= first_candidate) {
      delay = static_cast<double>(tx.block_height - first_candidate) + 1.0;
    }
    out.push_back(delay);
  }
  return out;
}

FeeBand fee_band(double sat_per_vb) noexcept {
  // 1e-4 BTC/KB == 10 sat/vB; 1e-3 BTC/KB == 100 sat/vB.
  if (sat_per_vb < 10.0) return FeeBand::kLow;
  if (sat_per_vb < 100.0) return FeeBand::kHigh;
  return FeeBand::kExorbitant;
}

std::vector<double> all_fee_rates(std::span<const SeenTx> txs) {
  std::vector<double> out;
  out.reserve(txs.size());
  for (const SeenTx& tx : txs) out.push_back(tx.fee_rate);
  return out;
}

std::vector<double> fee_rates_at_level(std::span<const SeenTx> txs,
                                       const node::SnapshotSeries& series,
                                       std::uint64_t unit_vsize,
                                       node::CongestionLevel level) {
  std::vector<SimTime> seen;
  seen.reserve(txs.size());
  for (const SeenTx& tx : txs) seen.push_back(tx.first_seen);
  const std::vector<node::CongestionLevel> levels =
      series.levels_for(seen, unit_vsize);
  std::vector<double> out;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (levels[i] == level) out.push_back(txs[i].fee_rate);
  }
  return out;
}

std::vector<double> delays_for_band(std::span<const SeenTx> txs,
                                    std::span<const double> delays, FeeBand band) {
  CN_ASSERT(txs.size() == delays.size());
  std::vector<double> out;
  for (std::size_t i = 0; i < txs.size(); ++i) {
    if (fee_band(txs[i].fee_rate) == band) out.push_back(delays[i]);
  }
  return out;
}

std::vector<double> fee_rates_of_pool(
    std::span<const SeenTx> txs,
    const std::function<bool(std::uint64_t height)>& is_pool_block) {
  std::vector<double> out;
  for (const SeenTx& tx : txs) {
    if (is_pool_block(tx.block_height)) out.push_back(tx.fee_rate);
  }
  return out;
}

}  // namespace cn::core
