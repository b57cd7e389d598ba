#include "node/fee_estimator.hpp"

#include <algorithm>

#include "stats/descriptive.hpp"
#include "util/assert.hpp"

namespace cn::node {

FeeEstimator::FeeEstimator(std::size_t window_blocks)
    : window_blocks_(window_blocks) {
  CN_ASSERT(window_blocks_ > 0);
}

void FeeEstimator::on_block(const btc::Block& block) {
  std::vector<double> rates;
  rates.reserve(block.tx_count());
  for (const btc::Transaction& tx : block.txs()) {
    rates.push_back(tx.fee_rate().sat_per_vbyte());
  }
  per_block_rates_.push_back(std::move(rates));
  while (per_block_rates_.size() > window_blocks_) per_block_rates_.pop_front();
}

double FeeEstimator::recommend_sat_per_vb(double percentile) const {
  CN_ASSERT(percentile >= 0.0 && percentile <= 1.0);
  const std::vector<double> all = sorted_rates();
  if (all.empty()) return 1.0;
  return stats::quantile_sorted(all, percentile);
}

std::vector<double> FeeEstimator::sorted_rates() const {
  std::vector<double> all;
  all.reserve(sample_count());
  for (const auto& rates : per_block_rates_) {
    all.insert(all.end(), rates.begin(), rates.end());
  }
  std::sort(all.begin(), all.end());
  return all;
}

std::size_t FeeEstimator::sample_count() const noexcept {
  std::size_t n = 0;
  for (const auto& rates : per_block_rates_) n += rates.size();
  return n;
}

}  // namespace cn::node
