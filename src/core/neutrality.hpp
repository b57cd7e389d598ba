// Chain-neutrality scoring (the paper's §6.1 proposal, made concrete).
//
// The paper closes by asking how a third-party observer could verify
// that miners adhere to ordering norms. This module composes the audit
// primitives into a per-pool scorecard a watchdog could publish:
//
//  * ordering fidelity — mean PPE of the pool's blocks (norm II);
//  * opaque-boost rate — fraction of the pool's committed transactions
//    with SPPE >= a threshold (selfish/collusive/dark-fee placements);
//  * self-dealing — the §5.1 acceleration p-value on the pool's own
//    (self-interest) transactions;
//  * floor discipline — fraction of blocks containing below-floor
//    (sub-1 sat/vB) transactions (norm III).
//
// The composite score starts at 100 and subtracts calibrated penalties;
// a norm-following pool lands in the high 90s, the paper's misbehaving
// pools fall well below.
//
// cnaudit and cnauditd share one implementation: a NeutralityTally fed
// block by block from core/audit_dataset.hpp's per-block columns, and
// neutrality_report, which turns it into the scorecard (DESIGN.md §13).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace cn::util {
class ThreadPool;
}

namespace cn::core {

class AuditDataset;

struct NeutralityOptions {
  double sppe_boost_threshold = 90.0;  ///< "hoisted" transaction cutoff
  std::uint64_t min_blocks = 10;       ///< pools below this are skipped
  double alpha = 0.001;                ///< significance for self-dealing
};

struct NeutralityReport {
  std::string pool;
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;

  double mean_ppe = 0.0;            ///< percentile-rank points, [0, 100]
  double boosted_tx_rate = 0.0;     ///< fraction with SPPE >= threshold
  double self_dealing_p = 1.0;      ///< acceleration p-value (own txs)
  double self_dealing_sppe = 0.0;   ///< SPPE of own txs in own blocks
  double below_floor_block_rate = 0.0;

  bool self_dealing_flagged = false;
  double score = 100.0;  ///< composite neutrality score, [0, 100]

  /// Mean effective coverage over the pool's blocks; annotated by the
  /// audit pipeline when a DataQualityReport is available (1.0 without).
  double coverage = 1.0;
  /// Coverage below the audit's min_coverage threshold: the scorecard
  /// rests on too little observed data and must not be read as "clean".
  bool insufficient_data = false;
};

/// The running sums behind one pool's scorecard.
struct NeutralityTally {
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  double ppe_sum = 0.0;
  std::uint64_t ppe_blocks = 0;
  std::uint64_t boosted = 0;       ///< txs with SPPE >= the boost threshold
  std::uint64_t floor_blocks = 0;  ///< blocks with an unrescued sub-floor tx
  // Self-dealing: the §5.1 test's x and y over c-blocks, blocks holding a
  // transaction that spends from or pays to the pool's wallets.
  std::uint64_t self_x = 0;  ///< c-blocks the pool mined
  std::uint64_t self_y = 0;  ///< all c-blocks
  double own_sppe_sum = 0.0;  ///< SPPE of those txs in the pool's own blocks
  std::uint64_t own_sppe_count = 0;

  /// Adds a block the pool mined: its PPE (NaN when undefined) and its
  /// transactions' SPPE and TxFlag columns.
  void add_mined_block(double ppe, std::span<const double> sppe,
                       std::span<const std::uint8_t> flags,
                       const NeutralityOptions& options);

  /// Adds a c-block. @p own_sppe holds the SPPE of the pool's
  /// transactions in it, which count only when the pool @p mined the
  /// block (NaN skipped).
  void add_c_block(bool mined, std::span<const double> own_sppe);
};

/// @p pool's scorecard from its tally, which must hold a block. The
/// self-dealing test takes theta0 = tally.blocks / @p total_blocks.
NeutralityReport neutrality_report(std::string pool, const NeutralityTally& tally,
                                   std::uint64_t total_blocks,
                                   const NeutralityOptions& options);

/// Orders scorecards worst first: by score, ties by pool name.
void sort_worst_first(std::vector<NeutralityReport>& reports);

/// Builds per-pool scorecards for every pool with at least
/// options.min_blocks attributed blocks, ordered worst-first. Each
/// pool's tally reads the dataset's cached PPE/SPPE columns, block lists,
/// flag bits and self-interest lists; the pools fan out over @p workers,
/// and the final worst-first sort makes the result the same at every
/// thread count.
std::vector<NeutralityReport> neutrality_reports(const AuditDataset& dataset,
                                                 const NeutralityOptions& options,
                                                 util::ThreadPool& workers);

/// The composite score for one report (exposed for testing; also set on
/// the reports returned above).
double neutrality_score(const NeutralityReport& report,
                        const NeutralityOptions& options = {});

}  // namespace cn::core
