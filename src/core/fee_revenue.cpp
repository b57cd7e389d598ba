#include "core/fee_revenue.hpp"

#include "btc/rewards.hpp"
#include "core/audit_dataset.hpp"
#include "util/assert.hpp"

namespace cn::core {

std::vector<double> per_block_fee_share_percent(const AuditDataset& dataset,
                                                double subsidy_scale) {
  CN_ASSERT(subsidy_scale > 0.0);
  std::vector<double> out;
  out.reserve(dataset.block_count());
  const std::span<const std::int64_t> fees = dataset.block_fees();
  const std::span<const std::uint64_t> heights = dataset.block_heights();
  for (std::size_t b = 0; b < dataset.block_count(); ++b) {
    const double fee = static_cast<double>(fees[b]);
    const double subsidy =
        static_cast<double>(btc::block_subsidy(heights[b]).value) * subsidy_scale;
    const double total = fee + subsidy;
    out.push_back(total <= 0.0 ? 0.0 : fee / total * 100.0);
  }
  return out;
}

stats::Summary fee_share_summary(const AuditDataset& dataset, double subsidy_scale) {
  return stats::summarize(per_block_fee_share_percent(dataset, subsidy_scale));
}

stats::Summary fee_share_summary(const AuditDataset& dataset,
                                 std::uint64_t first_height,
                                 std::uint64_t last_height,
                                 double subsidy_scale) {
  const std::vector<double> all = per_block_fee_share_percent(dataset, subsidy_scale);
  const std::span<const std::uint64_t> heights = dataset.block_heights();
  std::vector<double> shares;
  for (std::size_t b = 0; b < all.size(); ++b) {
    if (heights[b] >= first_height && heights[b] <= last_height) {
      shares.push_back(all[b]);
    }
  }
  return stats::summarize(shares);
}

}  // namespace cn::core
