#include "core/sppe.hpp"

#include <cmath>

#include "stats/rank.hpp"

namespace cn::core {

std::vector<double> block_sppe(const btc::Block& block) {
  const std::size_t n = block.tx_count();
  std::vector<double> out;
  if (n < 2) return out;

  std::vector<double> keys;
  keys.reserve(n);
  for (const btc::Transaction& tx : block.txs()) {
    keys.push_back(tx.fee_rate().sat_per_vbyte());
  }
  const std::vector<std::size_t> predicted = stats::predicted_positions(keys);

  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double obs = stats::percentile_rank(i, n);
    const double pred = stats::percentile_rank(predicted[i], n);
    out.push_back(pred - obs);
  }
  return out;
}

std::vector<double> sppe_values(const AuditDataset& dataset,
                                std::span<const TxIdx> txs, PoolId pool) {
  std::vector<double> out;
  const std::span<const double> sppe = dataset.sppe();
  const std::span<const PoolId> block_pool = dataset.block_pool();
  for (const TxIdx t : txs) {
    if (pool != kNoPoolId && block_pool[dataset.block_of(t)] != pool) continue;
    const double v = sppe[t];
    if (std::isnan(v)) continue;  // 1-tx block: no SPPE
    out.push_back(v);
  }
  return out;
}

double mean_sppe(const AuditDataset& dataset, std::span<const TxIdx> txs,
                 PoolId pool, std::size_t* count) {
  const std::vector<double> values = sppe_values(dataset, txs, pool);
  if (count != nullptr) *count = values.size();
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace cn::core
