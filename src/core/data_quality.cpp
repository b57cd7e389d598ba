#include "core/data_quality.hpp"

#include <algorithm>

namespace cn::core {

namespace {

/// Observer snapshot period (paper: one Mempool snapshot every 15 s).
constexpr SimTime kSnapshotCadence = 15;
/// Consecutive snapshots further apart than kGapFactor * cadence are an
/// outage window.
constexpr double kGapFactor = 2.0;

}  // namespace

double DataQualityReport::coverage_at(std::uint64_t height) const noexcept {
  const BlockCoverage* bc = find(height);
  return bc != nullptr ? bc->coverage : 1.0;
}

const BlockCoverage* DataQualityReport::find(std::uint64_t height) const noexcept {
  // Chain::append keeps heights contiguous, so a block's slot is its
  // offset from the first graded height.
  if (blocks.empty() || height < blocks.front().height) return nullptr;
  const std::uint64_t slot = height - blocks.front().height;
  return slot < blocks.size() ? &blocks[slot] : nullptr;
}

DataQualityReport assess_data_quality(
    const btc::Chain& chain, const node::SnapshotSeries* snapshots,
    const util::FlatMap<btc::Txid, SimTime>* first_seen) {
  DataQualityReport report;
  report.has_snapshots = snapshots != nullptr && !snapshots->empty();
  report.has_first_seen = first_seen != nullptr;
  if (first_seen != nullptr) {
    report.first_seen_txs = static_cast<std::uint64_t>(first_seen->size());
  }
  if (report.has_snapshots) {
    report.gaps = snapshots->gaps(kSnapshotCadence, kGapFactor);
  }

  report.blocks.reserve(chain.size());
  double coverage_sum = 0.0;
  SimTime prev_mined_at = chain.empty() ? 0 : chain.front().mined_at();
  for (const btc::Block& block : chain.blocks()) {
    BlockCoverage bc;
    bc.height = block.height();

    if (report.has_first_seen && block.tx_count() > 0) {
      std::size_t seen = 0;
      for (const btc::Transaction& tx : block.txs()) {
        if (first_seen->contains(tx.id())) ++seen;
      }
      bc.first_seen_coverage =
          static_cast<double>(seen) / static_cast<double>(block.tx_count());
    }

    // The block gathered its transactions between the previous block and
    // its own timestamp; if that window intersects an observer outage,
    // Mempool-derived claims about the block are unattributable.
    const SimTime window_from = std::min(prev_mined_at, block.mined_at());
    const SimTime window_to = block.mined_at();
    for (const node::SnapshotGap& gap : report.gaps) {
      if (window_from < gap.to && gap.from < window_to) {
        bc.in_snapshot_gap = true;
        break;
      }
    }

    bc.coverage = bc.in_snapshot_gap ? 0.0 : bc.first_seen_coverage;
    coverage_sum += bc.coverage;
    report.blocks.push_back(bc);
    prev_mined_at = block.mined_at();
  }
  report.mean_coverage =
      report.blocks.empty() ? 1.0
                            : coverage_sum / static_cast<double>(report.blocks.size());
  return report;
}

}  // namespace cn::core
