// Fee recommendation from recent blocks.
//
// The paper (§4.1) notes that Bitcoin Core and wallet software suggest
// fees from the fee-rate distribution of recently mined blocks — a loop
// that assumes miners follow the norm. The simulator's users consult this
// estimator, closing the same loop.
#pragma once

#include <cstddef>
#include <deque>
#include <span>
#include <vector>

#include "btc/amount.hpp"
#include "btc/block.hpp"

namespace cn::node {

class FeeEstimator {
 public:
  /// Remembers fee-rates from the last @p window_blocks blocks.
  explicit FeeEstimator(std::size_t window_blocks = 6);

  void on_block(const btc::Block& block);

  /// The window's fee-rates at quantiles @p qs (ascending, each in
  /// [0, 1]), equal to stats::quantile_sorted of the sorted window at
  /// each q. One unsorted copy serves every q: each reads its two order
  /// statistics by std::nth_element on the part of the copy above the
  /// previous q's, so nothing is fully sorted. Empty when the window is.
  std::vector<double> quantiles(std::span<const double> qs) const;

  /// Number of transactions currently in the window.
  std::size_t sample_count() const noexcept;

 private:
  std::size_t window_blocks_;
  std::deque<std::vector<double>> per_block_rates_;  // sat/vB
};

}  // namespace cn::node
