// Block-withholding (selfish-mining) detector.
//
// A withholding pool publishes blocks whose templates were frozen some
// time before publication, so the block is missing transactions every
// honest observer had long since seen. The Bitcoin-SV functional test
// (`-detectselfishmining`) flags exactly this signature: the block's
// timestamp lags its arrival AND a large fraction of the observer's
// mempool is absent from the block. We reproduce the mempool-overlap
// half against the observer's first-seen log: for each block, the
// candidate set is every transaction the observer saw at least
// `min_lead_s` (default 10 s, the BSV time-difference threshold) before
// the block, still unconfirmed, and paying at least the block's own
// fee-rate floor; a block missing `missing_threshold` (default 40%, the
// BSV overlap threshold) of its candidates is flagged. Per-pool flag
// rates are then tested against the network base rate with an exact
// binomial tail, mirroring the paper's §5 methodology.
//
// Inputs are public data only (the chain plus an observer's first-seen
// log), never simulator ground truth, so the detector runs unchanged on
// imported data sets.
#pragma once

#include <string>
#include <vector>

#include "btc/chain.hpp"
#include "core/wallet_inference.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace cn::core {

struct WithholdingOptions {
  /// A candidate must have been seen at least this long before the
  /// block (the BSV time-difference threshold).
  double min_lead_s = 10.0;
  /// Flag a block missing at least this fraction of its candidates
  /// (the BSV missing-mempool-overlap threshold).
  double missing_threshold = 0.4;
  /// Blocks with fewer candidates than this are not judged (too little
  /// mempool context to call an overlap).
  std::size_t min_candidates = 20;
  /// Candidates must pay at least this quantile of the block's included
  /// fee rates — transactions below the block's own floor were
  /// plausibly skipped for fee reasons, not withheld.
  double fee_floor_quantile = 0.10;
  /// Blocks at or above this fraction of the observed capacity are not
  /// judged: a full block excludes transactions legitimately.
  double full_block_fraction = 0.95;
};

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
/// reported in attribution order, then sorted worst first (p ascending,
/// rate descending, name).
std::vector<WithholdingReport> withholding_reports(
    const btc::Chain& chain, const PoolAttribution& attribution,
    const util::FlatMap<btc::Txid, SimTime>& first_seen,
    const WithholdingOptions& options = {});

}  // namespace cn::core
