#include "core/prio_test.hpp"

#include "core/sppe.hpp"
#include "stats/binomial.hpp"
#include "stats/fisher.hpp"
#include "util/assert.hpp"

namespace cn::core {

std::uint64_t count_c_blocks(const AuditDataset& dataset, std::span<const TxIdx> txs) {
  std::uint64_t blocks = 0;
  for_each_c_block(dataset, txs,
                   [&](std::uint32_t, std::span<const TxIdx>) { ++blocks; });
  return blocks;
}

std::vector<TxIdx> restrict_to_heights(const AuditDataset& dataset,
                                       std::span<const TxIdx> txs,
                                       std::uint64_t first_height,
                                       std::uint64_t last_height) {
  std::vector<TxIdx> out;
  for (const TxIdx t : txs) {
    const std::uint64_t height = dataset.height_of(t);
    if (height >= first_height && height <= last_height) out.push_back(t);
  }
  return out;
}

PrioTestResult test_differential_prioritization(const AuditDataset& dataset,
                                                PoolId pool,
                                                std::span<const TxIdx> c_txs,
                                                double theta0_override) {
  PrioTestResult r;
  r.pool = dataset.pool_name(pool);
  r.theta0 = theta0_override > 0.0 ? theta0_override : dataset.hash_share(pool);
  CN_ASSERT(r.theta0 >= 0.0 && r.theta0 <= 1.0);

  // y counts the c-blocks, x the pool-mined ones.
  const std::span<const PoolId> block_pool = dataset.block_pool();
  for_each_c_block(dataset, c_txs, [&](std::uint32_t b, std::span<const TxIdx>) {
    ++r.y;
    if (block_pool[b] == pool) ++r.x;
  });
  if (r.y == 0) return r;  // no evidence either way: p-values stay 1

  r.p_accelerate = stats::acceleration_p_value(r.x, r.y, r.theta0);
  r.p_decelerate = stats::deceleration_p_value(r.x, r.y, r.theta0);
  r.sppe = mean_sppe(dataset, c_txs, pool, &r.sppe_count);
  return r;
}

double windowed_acceleration_p_value(const AuditDataset& dataset, PoolId pool,
                                     std::span<const TxIdx> c_txs,
                                     unsigned windows) {
  CN_ASSERT(windows >= 1);
  if (pool >= dataset.pool_count()) return 1.0;  // mined no block, no window
  const std::size_t blocks = dataset.block_count();
  const std::span<const PoolId> block_pool = dataset.block_pool();

  std::vector<double> p_values;
  std::size_t next = 0;  // c_txs ascends, so each window's slice follows the last
  for (unsigned w = 0; w < windows; ++w) {
    // Window w holds block ordinals [lo, hi); with more windows than
    // blocks some hold none.
    const std::size_t lo = blocks * w / windows;
    const std::size_t hi = blocks * (w + 1) / windows;
    const std::size_t begin = next;
    while (next < c_txs.size() && dataset.block_of(c_txs[next]) < hi) ++next;
    if (lo == hi || next == begin) continue;

    // Per-window hash share estimated from the window's blocks only.
    std::uint64_t pool_blocks = 0;
    for (std::size_t b = lo; b < hi; ++b) pool_blocks += block_pool[b] == pool;
    const double theta0 =
        static_cast<double>(pool_blocks) / static_cast<double>(hi - lo);
    if (theta0 <= 0.0 || theta0 >= 1.0) continue;

    std::uint64_t x = 0;
    std::uint64_t y = 0;
    for_each_c_block(dataset, c_txs.subspan(begin, next - begin),
                     [&](std::uint32_t b, std::span<const TxIdx>) {
                       ++y;
                       if (block_pool[b] == pool) ++x;
                     });
    p_values.push_back(stats::acceleration_p_value(x, y, theta0));
  }
  if (p_values.empty()) return 1.0;
  return stats::fisher_combine(p_values);
}

}  // namespace cn::core
