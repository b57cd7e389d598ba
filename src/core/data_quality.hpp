// Degraded-data assessment for the audit (the paper's §3 reality).
//
// The paper's measurement substrate was lossy: Mempool snapshots every
// 15 s with node restarts and outage windows, and a first-seen log that
// only covers transactions the observer actually relayed. Audit
// conclusions are sensitive to such observation gaps (Albrecht et al.,
// PAPERS.md), so instead of assuming perfect coverage this module grades
// it: per-block first-seen coverage, snapshot gaps against the expected
// cadence, and an effective coverage fraction the audit pipeline uses to
// mask low-coverage blocks and downgrade findings that rest on them.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "btc/chain.hpp"
#include "node/snapshot.hpp"
#include "util/flat_map.hpp"

namespace cn::core {

/// Coverage grade for one block.
struct BlockCoverage {
  std::uint64_t height = 0;
  /// Fraction of the block's transactions present in the first-seen log
  /// (1.0 when no first-seen data was supplied, or the block is empty).
  double first_seen_coverage = 1.0;
  /// The block's arrival window (previous block's mined_at to its own)
  /// overlaps a snapshot outage — nothing the observer claims about
  /// Mempool state during that window can be trusted.
  bool in_snapshot_gap = false;
  /// Effective coverage the audit masks on: first_seen_coverage, forced
  /// to 0 when the block sits in a snapshot gap.
  double coverage = 1.0;
};

struct DataQualityReport {
  bool has_snapshots = false;
  bool has_first_seen = false;
  std::vector<node::SnapshotGap> gaps;  ///< observer outage windows
  std::vector<BlockCoverage> blocks;    ///< chain order
  double mean_coverage = 1.0;           ///< mean effective coverage
  std::uint64_t first_seen_txs = 0;     ///< entries in the first-seen log

  /// Effective coverage of @p height; 1.0 for heights outside the graded
  /// chain (no evidence either way).
  double coverage_at(std::uint64_t height) const noexcept;
  const BlockCoverage* find(std::uint64_t height) const noexcept;

  // Populated by assess_data_quality for O(1) coverage_at lookups.
  std::unordered_map<std::uint64_t, std::size_t> index;
};

/// Grades @p chain against the auxiliary observations. Either series may
/// be null: absent evidence never lowers coverage (a chain audited
/// without Mempool data keeps the historical perfect-coverage
/// behaviour); present-but-gappy evidence does. Snapshots are expected
/// every 15 s (the paper's cadence); consecutive snapshots more than
/// twice that apart bound an outage window.
DataQualityReport assess_data_quality(
    const btc::Chain& chain, const node::SnapshotSeries* snapshots,
    const util::FlatMap<btc::Txid, SimTime>* first_seen);

}  // namespace cn::core
