#include "node/fee_estimator.hpp"

#include <algorithm>

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

std::vector<double> FeeEstimator::quantiles(std::span<const double> qs) const {
  CN_ASSERT(std::is_sorted(qs.begin(), qs.end()) &&
            (qs.empty() || (qs.front() >= 0.0 && qs.back() <= 1.0)));
  std::vector<double> all;
  all.reserve(sample_count());
  for (const auto& rates : per_block_rates_) {
    all.insert(all.end(), rates.begin(), rates.end());
  }
  std::vector<double> out;
  if (all.empty()) return out;
  out.reserve(qs.size());
  const std::size_t n = all.size();
  // Invariant: every value before `settled` is <= every value from it on,
  // so the order statistics at or after it lie in [settled, end).
  auto settled = all.begin();
  for (const double q : qs) {
    // stats::quantile_sorted's arithmetic, on order statistics instead of
    // a sorted copy.
    if (n == 1) {
      out.push_back(all[0]);
      continue;
    }
    const double pos = q * static_cast<double>(n - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= n) {
      out.push_back(*std::max_element(settled, all.end()));
      continue;
    }
    const auto at = all.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(settled, at, all.end());
    // The next order statistic is the least value above position lo.
    std::iter_swap(at + 1, std::min_element(at + 1, all.end()));
    out.push_back(*at + frac * (*(at + 1) - *at));
    settled = at;
  }
  return out;
}

std::size_t FeeEstimator::sample_count() const noexcept {
  std::size_t n = 0;
  for (const auto& rates : per_block_rates_) n += rates.size();
  return n;
}

}  // namespace cn::node
