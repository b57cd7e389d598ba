#include "core/ppe.hpp"

#include <algorithm>
#include <cmath>

#include "core/audit_dataset.hpp"
#include "stats/rank.hpp"
#include "util/assert.hpp"

namespace cn::core {

std::vector<PositionPair> predicted_positions(const btc::Block& block,
                                              bool exclude_cpfp) {
  // With @p exclude_cpfp, drop CPFP children and their in-block parents:
  // both were placed by the package rate, not their individual rates.
  std::vector<std::uint8_t> flags(block.tx_count(), 0);
  if (exclude_cpfp) block_flags(block, flags);
  std::vector<double> keys;
  keys.reserve(block.tx_count());
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if ((flags[i] & (kTxCpfpChild | kTxCpfpParent)) != 0) continue;
    keys.push_back(block.txs()[i].fee_rate().sat_per_vbyte());
  }

  // Stable sort: ties keep observed order (charitable to the miner).
  const std::vector<std::size_t> predicted = stats::predicted_positions(keys);

  std::vector<PositionPair> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out.push_back(PositionPair{i, predicted[i]});
  }
  return out;
}

std::optional<double> block_ppe(const btc::Block& block, bool exclude_cpfp) {
  const std::vector<PositionPair> pairs = predicted_positions(block, exclude_cpfp);
  const std::size_t n = pairs.size();
  if (n < 2) return std::nullopt;
  double sum = 0.0;
  for (const PositionPair& p : pairs) {
    const double obs = stats::percentile_rank(p.observed, n);
    const double pred = stats::percentile_rank(p.predicted, n);
    sum += std::fabs(pred - obs);
  }
  return sum / static_cast<double>(n);
}

std::vector<double> chain_ppe(const AuditDataset& dataset) {
  std::vector<double> out;
  out.reserve(dataset.block_count());
  for (const double v : dataset.block_ppe()) {
    if (!std::isnan(v)) out.push_back(v);
  }
  return out;
}

}  // namespace cn::core
