#include "core/ppe.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "core/audit_dataset.hpp"
#include "stats/rank.hpp"
#include "util/assert.hpp"

namespace cn::core {

std::vector<PositionPair> predicted_positions(const btc::Block& block,
                                              bool exclude_cpfp) {
  // Collect retained transaction fee-rates in observed order.
  std::vector<double> keys;
  keys.reserve(block.tx_count());
  if (exclude_cpfp) {
    // Drop CPFP children and their in-block parents: both were placed by
    // the package rate, not their individual rates.
    const std::vector<std::size_t> cpfp = block.cpfp_positions();
    std::vector<bool> excluded(block.tx_count(), false);
    std::unordered_set<btc::Txid> parent_ids;
    for (std::size_t pos : cpfp) {
      excluded[pos] = true;
      for (const btc::TxInput& in : block.txs()[pos].inputs()) {
        if (!in.prev_txid.is_null()) parent_ids.insert(in.prev_txid);
      }
    }
    for (std::size_t i = 0; i < block.txs().size(); ++i) {
      if (!excluded[i] && parent_ids.contains(block.txs()[i].id())) {
        excluded[i] = true;
      }
    }
    for (std::size_t i = 0; i < block.txs().size(); ++i) {
      if (excluded[i]) continue;
      keys.push_back(block.txs()[i].fee_rate().sat_per_vbyte());
    }
  } else {
    for (const btc::Transaction& tx : block.txs()) {
      keys.push_back(tx.fee_rate().sat_per_vbyte());
    }
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
