// Block-withholding (selfish-mining) detector.
//
// A withholding pool publishes blocks whose templates were frozen some
// time before publication, so the block is missing transactions every
// honest observer had long since seen. The Bitcoin-SV functional test
// (`-detectselfishmining`) flags exactly this signature: the block's
// timestamp lags its arrival AND a large fraction of the observer's
// mempool is absent from the block. We reproduce the mempool-overlap
// half against the observer's first-seen log: for each block, the
// candidate set is every transaction the observer saw at least 10 s
// (the BSV time-difference threshold) before the block, still
// unconfirmed, and paying at least the block's own fee-rate floor; a
// block missing 40% (the BSV overlap threshold) of its candidates is
// flagged. Per-pool flag rates are then tested against the network base
// rate with an exact binomial tail, mirroring the paper's §5
// methodology.
//
// Inputs are public data only (the dataset's block times, fee rates,
// vsizes and owners, plus an observer's first-seen log), never
// simulator ground truth, so the detector runs unchanged on imported
// data sets.
#pragma once

#include <string>
#include <vector>

#include "core/audit_dataset.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace cn::core {

/// Per-pool withholding suspicion (worst first after sorting).
struct WithholdingReport {
  std::string pool;
  std::uint64_t blocks = 0;   ///< non-empty attributed blocks judged
  std::uint64_t flagged = 0;  ///< blocks over the missing threshold
  double flagged_rate = 0.0;  ///< flagged / blocks
  double base_rate = 0.0;     ///< network-wide flagged fraction
  /// Exact binomial tail Pr[B(blocks, base_rate) >= flagged]: how
  /// surprising this pool's flag count is under the network base rate.
  double p_value = 1.0;
};

/// Runs the detector over every attributed pool. @p first_seen maps each
/// transaction to the observer's first-seen time (io::FirstSeenMap's
/// underlying type; core stays io-free). Deterministic: pools are
/// reported in pools_by_blocks() order, then sorted worst first (p
/// ascending, rate descending, name).
std::vector<WithholdingReport> withholding_reports(
    const AuditDataset& dataset,
    const util::FlatMap<btc::Txid, SimTime>& first_seen);

}  // namespace cn::core
