// Pairwise selection-norm violations (paper §4.2.1, Figure 6).
//
// From a Mempool snapshot at time T, take the transactions that were
// pending at T and eventually committed. A pair (i, j) violates the
// fee-rate selection norm when i arrived earlier (t_i + eps < t_j) and
// offered a higher fee-rate (f_i > f_j) yet was committed later
// (b_i > b_j). The reported fraction is violations over the pairs the
// norm makes a prediction for (t_i + eps < t_j and f_i > f_j).
//
// Counting is exact and sub-quadratic: predicted pairs come from a
// Fenwick-tree sweep over fee-rate ranks (Kendall-tau style, O(n log n));
// violations add the third (block-height) dimension and are counted with
// a CDQ divide-and-conquer over the same event sequence (O(n log^2 n)).
// The epsilon arrival window is handled by splitting every transaction
// into a query event at t_j and a deferred insert event at t_i + eps, so
// a transaction only becomes "visible" to later queries once its slack
// has elapsed. The O(n^2) reference loop is kept behind
// PairAlgorithm::kBruteForce for cross-validation.
//
// PairViolationCounter keeps the same exact count running over a log
// that grows in commit order (the daemon's event log), so a new batch
// costs about its own size instead of a recount of the whole log.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace cn::core {

/// A committed transaction as seen by the observer node.
struct SeenTx {
  SimTime first_seen = 0;       ///< observer arrival (the paper's t_i)
  double fee_rate = 0.0;        ///< sat/vB (f_i)
  std::uint64_t block_height = 0;  ///< commit block (b_i)
  bool cpfp = false;            ///< in-block CPFP child
  bool cpfp_parent = false;     ///< parent of an in-block CPFP child
};

struct PairViolationStats {
  std::uint64_t predicted_pairs = 0;  ///< pairs with t_i+eps<t_j, f_i>f_j
  std::uint64_t violations = 0;       ///< ... of which b_i > b_j

  double fraction() const noexcept {
    if (predicted_pairs == 0) return 0.0;
    return static_cast<double>(violations) / static_cast<double>(predicted_pairs);
  }
};

/// Counting strategy. Both produce identical results on any input (the
/// property suite cross-validates them); kFenwick is the production path.
enum class PairAlgorithm {
  kFenwick,     ///< O(n log n) sweep + O(n log^2 n) CDQ (exact, default)
  kBruteForce,  ///< O(n^2) reference double loop (cross-validation)
};

/// Counts violating pairs among @p txs with arrival slack @p epsilon
/// (negative epsilon is clamped to 0).
/// When @p exclude_cpfp, transactions that are in-block CPFP children or
/// parents of one are discarded first (the paper's Fig 6b).
PairViolationStats count_pair_violations(
    std::vector<SeenTx> txs, SimTime epsilon, bool exclude_cpfp,
    PairAlgorithm algorithm = PairAlgorithm::kFenwick);

/// Extension beyond Fig 6: attributes each violating pair to the block
/// height that *caused* it — the block committing the later-arriving,
/// lower-fee transaction j while the better-qualified i was left pending
/// (i.e. b_j; the miner of that block skipped i). Returns violation
/// counts per block height, which callers can fold by pool via
/// AuditDataset::pool_at. Same filtering semantics as
/// count_pair_violations.
std::unordered_map<std::uint64_t, std::uint64_t> violations_by_block(
    std::vector<SeenTx> txs, SimTime epsilon, bool exclude_cpfp,
    PairAlgorithm algorithm = PairAlgorithm::kFenwick);

/// Exact running pair-violation count: after any sequence of accepted
/// add() calls, stats() equals count_pair_violations over every
/// transaction added, with the same epsilon and CPFP filter.
///
/// A batch is accepted when each transaction it keeps is committed in a
/// block strictly after every transaction already counted (true of a
/// feed in chain-height order). A cross pair (counted x, new y) then has
/// b_y > b_x, so it is a violation exactly when y arrived first with the
/// higher fee (t_y + eps < t_x, f_y > f_x), and predicted but compliant
/// in the other orientation. For b new over n counted transactions the
/// cross pairs cost O(b log n + s log b), where s counts the counted
/// transactions seen later than eps before the batch's earliest arrival.
/// At worst s is n; over the daemon's seals of data set C at seed 42 it
/// averages 12% of n, because a batch holds transactions that waited
/// long. A first-seen-sorted index sweeps those s with Fenwick trees
/// over the batch's fee ranks; a fee-sorted index counts the pairs of
/// all earlier arrivals in bulk. Pairs inside the batch go through the
/// O(b log^2 b) counter above, and merging the batch into both indexes
/// is O(n).
class PairViolationCounter {
 public:
  /// Negative @p epsilon is clamped to 0, as in count_pair_violations.
  PairViolationCounter(SimTime epsilon, bool exclude_cpfp);

  /// Counts @p batch together with every transaction added before and
  /// returns true. Returns false, counting nothing, when the batch keeps
  /// a transaction committed at or below the highest counted block; an
  /// empty counter accepts any batch.
  bool add(std::span<const SeenTx> batch);

  /// Forgets every counted transaction.
  void clear();

  const PairViolationStats& stats() const noexcept { return stats_; }

 private:
  struct Arrival {
    SimTime first_seen = 0;
    double fee_rate = 0.0;
  };

  SimTime epsilon_;
  bool exclude_cpfp_;
  PairViolationStats stats_;
  std::uint64_t max_height_ = 0;  ///< highest counted block
  std::vector<Arrival> counted_;  ///< counted transactions, by first_seen
  std::vector<double> counted_fees_;  ///< their fee rates, ascending
};

}  // namespace cn::core
