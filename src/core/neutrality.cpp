#include "core/neutrality.hpp"

#include <algorithm>
#include <cmath>

#include "core/audit_dataset.hpp"
#include "core/prio_test.hpp"
#include "stats/binomial.hpp"
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

void NeutralityTally::add_mined_block(double ppe, std::span<const double> sppe,
                                      std::span<const std::uint8_t> flags,
                                      const NeutralityOptions& options) {
  ++blocks;
  txs += sppe.size();
  if (!std::isnan(ppe)) {
    ppe_sum += ppe;
    ++ppe_blocks;
  }
  for (const double s : sppe) {
    if (s >= options.sppe_boost_threshold) ++boosted;  // NaN: no
  }
  // Floor discipline (norm III): sub-floor txs that are NOT parents
  // rescued by an in-block CPFP child.
  for (const std::uint8_t f : flags) {
    if ((f & kTxBelowFloor) != 0 && (f & kTxCpfpParent) == 0) {
      ++floor_blocks;
      break;
    }
  }
}

void NeutralityTally::add_c_block(bool mined, std::span<const double> own_sppe) {
  ++self_y;
  if (!mined) return;
  ++self_x;
  for (const double s : own_sppe) {
    if (std::isnan(s)) continue;  // 1-tx block: no SPPE
    own_sppe_sum += s;
    ++own_sppe_count;
  }
}

NeutralityReport neutrality_report(std::string pool, const NeutralityTally& tally,
                                   std::uint64_t total_blocks,
                                   const NeutralityOptions& options) {
  NeutralityReport report;
  report.pool = std::move(pool);
  report.blocks = tally.blocks;
  report.txs = tally.txs;
  if (tally.ppe_blocks > 0) {
    report.mean_ppe = tally.ppe_sum / static_cast<double>(tally.ppe_blocks);
  }
  if (tally.txs > 0) {
    report.boosted_tx_rate =
        static_cast<double>(tally.boosted) / static_cast<double>(tally.txs);
  }
  report.below_floor_block_rate =
      static_cast<double>(tally.floor_blocks) / static_cast<double>(tally.blocks);
  if (tally.self_y > 0) {
    const double theta0 =
        static_cast<double>(tally.blocks) / static_cast<double>(total_blocks);
    report.self_dealing_p =
        stats::acceleration_p_value(tally.self_x, tally.self_y, theta0);
    if (tally.own_sppe_count > 0) {
      report.self_dealing_sppe =
          tally.own_sppe_sum / static_cast<double>(tally.own_sppe_count);
    }
    report.self_dealing_flagged =
        report.self_dealing_p < options.alpha && tally.self_y >= options.min_blocks;
  }
  report.score = neutrality_score(report, options);
  return report;
}

void sort_worst_first(std::vector<NeutralityReport>& reports) {
  std::sort(reports.begin(), reports.end(),
            [](const NeutralityReport& a, const NeutralityReport& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.pool < b.pool;
            });
}

namespace {

/// One pool's tally over the dataset's cached columns, with every wallet
/// the pool ever names known up front.
NeutralityTally tally_pool(const AuditDataset& dataset, PoolId pool,
                           const NeutralityOptions& options) {
  NeutralityTally tally;
  const std::span<const double> block_ppe = dataset.block_ppe();
  const std::span<const double> sppe = dataset.sppe();
  const std::span<const std::uint8_t> flags = dataset.tx_flags();
  for (const std::uint32_t b : dataset.blocks_of_pool(pool)) {
    const TxIdx begin = dataset.tx_begin(b);
    const std::size_t n = dataset.tx_end(b) - begin;
    tally.add_mined_block(block_ppe[b], sppe.subspan(begin, n),
                          flags.subspan(begin, n), options);
  }

  const std::span<const PoolId> block_pool = dataset.block_pool();
  std::vector<double> own_sppe;
  for_each_c_block(dataset, dataset.self_interest_txs(pool),
                   [&](std::uint32_t b, std::span<const TxIdx> own) {
                     own_sppe.clear();
                     for (const TxIdx t : own) own_sppe.push_back(sppe[t]);
                     tally.add_c_block(block_pool[b] == pool, own_sppe);
                   });
  return tally;
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
        return neutrality_report(dataset.pool_name(pools[i]),
                                 tally_pool(dataset, pools[i], options),
                                 dataset.block_count(), options);
      });
  sort_worst_first(out);
  return out;
}

}  // namespace cn::core
