#include "core/neutrality.hpp"

#include <algorithm>
#include <cmath>

#include "core/audit_dataset.hpp"
#include "core/prio_test.hpp"
#include "core/sppe.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace cn::core {

double neutrality_score(const NeutralityReport& report,
                        const NeutralityOptions& options) {
  double score = 100.0;
  // Ordering fidelity: each PPE point above 1 costs 2 points (cap 20).
  score -= std::min(std::max(report.mean_ppe - 1.0, 0.0) * 2.0, 20.0);
  // Opaque boosts: each 0.1% of hoisted transactions costs 1 point (cap 40).
  score -= std::min(report.boosted_tx_rate * 1000.0, 40.0);
  // Self-dealing: a significant acceleration test costs 30 points, scaled
  // by how extreme the position evidence is.
  if (report.self_dealing_p < options.alpha) {
    score -= 15.0 + 15.0 * std::min(std::max(report.self_dealing_sppe, 0.0), 100.0) / 100.0;
  }
  // Floor discipline: sporadic below-floor inclusion is a mild deviation.
  score -= std::min(report.below_floor_block_rate * 20.0, 10.0);
  return std::max(score, 0.0);
}

namespace {

/// One pool's scorecard over the dataset's cached columns. The per-block
/// PPE/SPPE values are the ones block_ppe/block_sppe produced at build
/// time.
NeutralityReport report_for_pool(const AuditDataset& dataset, PoolId pool,
                                 const NeutralityOptions& options) {
  NeutralityReport report;
  report.pool = dataset.pool_name(pool);

  double ppe_sum = 0.0;
  std::uint64_t ppe_blocks = 0;
  std::uint64_t boosted = 0;
  std::uint64_t floor_blocks = 0;

  const std::span<const double> block_ppe = dataset.block_ppe();
  const std::span<const double> sppe = dataset.sppe();
  const std::span<const std::uint8_t> flags = dataset.tx_flags();
  for (const std::uint32_t b : dataset.blocks_of_pool(pool)) {
    const TxIdx begin = dataset.tx_begin(b);
    const TxIdx end = dataset.tx_end(b);
    ++report.blocks;
    report.txs += end - begin;

    if (!std::isnan(block_ppe[b])) {
      ppe_sum += block_ppe[b];
      ++ppe_blocks;
    }
    for (TxIdx t = begin; t < end; ++t) {
      if (sppe[t] >= options.sppe_boost_threshold) ++boosted;  // NaN: no
    }
    // Floor discipline (norm III): sub-floor txs that are NOT parents
    // rescued by an in-block CPFP child.
    for (TxIdx t = begin; t < end; ++t) {
      if ((flags[t] & kTxBelowFloor) != 0 && (flags[t] & kTxCpfpParent) == 0) {
        ++floor_blocks;
        break;
      }
    }
  }
  if (ppe_blocks > 0) report.mean_ppe = ppe_sum / static_cast<double>(ppe_blocks);
  if (report.txs > 0) {
    report.boosted_tx_rate =
        static_cast<double>(boosted) / static_cast<double>(report.txs);
  }
  report.below_floor_block_rate =
      static_cast<double>(floor_blocks) / static_cast<double>(report.blocks);

  const std::span<const TxIdx> own_txs = dataset.self_interest_txs(pool);
  if (!own_txs.empty()) {
    const auto test = test_differential_prioritization(dataset, pool, own_txs);
    report.self_dealing_p = test.p_accelerate;
    report.self_dealing_sppe = test.sppe;
    report.self_dealing_flagged =
        test.p_accelerate < options.alpha && test.y >= options.min_blocks;
  }

  report.score = neutrality_score(report, options);
  return report;
}

}  // namespace

std::vector<NeutralityReport> neutrality_reports(const AuditDataset& dataset,
                                                 const NeutralityOptions& options,
                                                 util::ThreadPool& workers) {
  std::vector<PoolId> pools;
  for (const PoolId id : dataset.pools_by_blocks()) {
    if (dataset.blocks_of(id) >= options.min_blocks) pools.push_back(id);
  }
  std::vector<NeutralityReport> out =
      workers.parallel_map(pools.size(), [&](std::size_t i) {
        return report_for_pool(dataset, pools[i], options);
      });
  // Worst first.
  std::sort(out.begin(), out.end(),
            [](const NeutralityReport& a, const NeutralityReport& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.pool < b.pool;
            });
  return out;
}

}  // namespace cn::core
