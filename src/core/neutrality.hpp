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
#pragma once

#include <cstdint>
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

/// Builds per-pool scorecards for every pool with at least
/// options.min_blocks attributed blocks, ordered worst-first. Each
/// pool's scorecard reads the dataset's cached PPE/SPPE columns,
/// precomputed block lists and flag bits; the pools fan out over
/// @p workers, and the final worst-first sort makes the result the same
/// at every thread count.
std::vector<NeutralityReport> neutrality_reports(const AuditDataset& dataset,
                                                 const NeutralityOptions& options,
                                                 util::ThreadPool& workers);

/// The composite score for one report (exposed for testing; also set on
/// the reports returned above).
double neutrality_score(const NeutralityReport& report,
                        const NeutralityOptions& options = {});

}  // namespace cn::core
