// Incremental audit accumulators — the daemon's event-sourced twin of
// core::run_full_audit's per-pool scorecards.
//
// The batch pipeline scans a finished chain; cnauditd sees one block at
// a time and must answer queries between blocks. This module keeps, per
// pool, exactly the partial sums core's report_for_pool would hold after
// the same prefix of blocks (PPE sum, boosted-tx and floor-discipline
// counts, self-dealing c-block counts), applies one block in O(block),
// and materializes a full worst-first scorecard on demand ("sealing").
//
// One semantic deliberately differs from batch: self-interest flagging
// is *prequential*. The batch audit knows every wallet a pool ever
// names; the daemon flags a transaction against the wallets known when
// its block is applied — the honest online-observer stance (a watchdog
// cannot use wallets announced in next month's coinbases). mean_ppe,
// boosted rate, and floor rate are bitwise equal to batch; self-dealing
// x/y may lag batch early in a stream and converge as wallets are
// learned. DESIGN.md §13 records this contract.
//
// Everything here is deterministic and serializable: apply order is
// defined (attribute + learn wallet, then norms, then self-interest),
// doubles round-trip bit-exactly through encode/decode, and report JSON
// is rendered with a fixed format — the foundations of the crash-safety
// invariant (kill anywhere, restart from checkpoint, byte-identical
// report).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btc/chain.hpp"
#include "btc/coinbase_tags.hpp"
#include "core/congestion.hpp"
#include "core/neutrality.hpp"
#include "core/pair_violations.hpp"
#include "node/snapshot.hpp"

namespace cn::daemon {

struct AccumulatorOptions {
  core::NeutralityOptions neutrality;  ///< same thresholds as batch
  /// Arrival slack for the pair-violation count (core's epsilon).
  SimTime pair_epsilon = 0;
  bool pair_exclude_cpfp = true;
  /// Block budget the congestion bins are relative to.
  std::uint64_t congestion_unit_vsize = 1'000'000;

  /// Order-insensitive digest of every threshold above. Checkpoints
  /// embed it; restoring under different options is a typed error, not
  /// a silently wrong report.
  std::uint64_t fingerprint() const noexcept;
};

/// Running per-pool state, in intern (first-block-seen) order.
struct PoolState {
  std::string name;
  std::uint64_t blocks = 0;
  std::uint64_t txs = 0;
  double ppe_sum = 0.0;
  std::uint64_t ppe_blocks = 0;
  std::uint64_t boosted = 0;       ///< txs with SPPE >= boost threshold
  std::uint64_t floor_blocks = 0;  ///< blocks with an unrescued sub-floor tx
  // Prequential self-dealing tallies (x, y of the §5.1 binomial test).
  std::uint64_t self_x = 0;  ///< c-blocks this pool mined
  std::uint64_t self_y = 0;  ///< all c-blocks for this pool's wallets
  double own_sppe_sum = 0.0;
  std::uint64_t own_sppe_count = 0;
  /// Reward wallets learned from this pool's coinbases so far.
  std::unordered_set<btc::Address> wallets;
};

class AuditAccumulators {
 public:
  AuditAccumulators(const btc::CoinbaseTagRegistry& registry,
                    AccumulatorOptions options = {});

  /// Applies one committed block. @p first_seen resolves observer
  /// arrival times for the pair-violation log (entries it cannot
  /// resolve are skipped, exactly like core::collect_seen_txs).
  /// @p seq is the stream sequence number the block arrived as; it
  /// becomes the report version and the checkpoint recovery cursor.
  void apply_block(const btc::Block& block, const core::FirstSeenFn& first_seen,
                   std::uint64_t seq);

  /// Applies one mempool snapshot observation.
  void apply_snapshot(const node::MempoolStat& snapshot, std::uint64_t seq);

  std::uint64_t last_seq() const noexcept { return last_seq_; }
  std::uint64_t blocks() const noexcept { return total_blocks_; }
  std::uint64_t txs() const noexcept { return total_txs_; }
  std::uint64_t snapshots() const noexcept { return snapshot_count_; }
  std::size_t pool_count() const noexcept { return pools_.size(); }
  const PoolState& pool(std::size_t i) const { return pools_[i]; }

  /// A sealed, self-consistent report of everything applied so far.
  /// `version` is last_seq(), so a restarted daemon that reaches the
  /// same stream position seals the same version. Pair-violation stats
  /// are exact: equal to core::count_pair_violations over the event log,
  /// kept by a running counter that each seal feeds only the entries
  /// appended since the last one.
  struct Report {
    std::uint64_t version = 0;  ///< last applied stream seq
    std::uint64_t blocks = 0;
    std::uint64_t txs = 0;
    std::uint64_t unidentified_blocks = 0;
    std::uint64_t snapshots = 0;
    core::PairViolationStats pairs;
    double mean_pending_txs = 0.0;
    std::uint64_t max_total_vsize = 0;
    std::uint64_t congestion_levels[4] = {0, 0, 0, 0};
    std::vector<core::NeutralityReport> neutrality;  ///< worst first
  };
  Report seal() const;

  /// Deterministic JSON rendering: fixed key order, %.17g doubles,
  /// minimal escaping — two equal Reports always produce equal bytes.
  static std::string to_json(const Report& report);

  // --- checkpoint support --------------------------------------------

  /// Serializes the full accumulator state (bit-exact doubles, wallets
  /// sorted by address so equal states encode to equal bytes).
  void encode(std::vector<std::uint8_t>& out) const;

  /// Restores state from encode()'s output. On failure returns false
  /// with *error set; the accumulator is left in an unspecified state
  /// and must be discarded.
  bool decode(const std::uint8_t* data, std::size_t size, std::string* error);

  const AccumulatorOptions& options() const noexcept { return options_; }
  std::uint64_t registry_fingerprint() const noexcept {
    return registry_->fingerprint();
  }

 private:
  std::uint32_t intern(const std::string& name);
  void learn_wallet(std::uint32_t pool, btc::Address address);

  const btc::CoinbaseTagRegistry* registry_;
  AccumulatorOptions options_;

  std::vector<PoolState> pools_;
  std::unordered_map<std::string, std::uint32_t> pool_ids_;
  /// Reverse wallet index: address -> pools that announced it (almost
  /// always one; kept as a vector for correctness when tags collide).
  std::unordered_map<btc::Address, std::vector<std::uint32_t>> wallet_owner_;

  std::uint64_t total_blocks_ = 0;
  std::uint64_t total_txs_ = 0;
  std::uint64_t unidentified_ = 0;
  std::uint64_t last_seq_ = 0;

  std::uint64_t snapshot_count_ = 0;
  std::uint64_t pending_tx_sum_ = 0;
  std::uint64_t max_total_vsize_ = 0;
  std::uint64_t congestion_levels_[4] = {0, 0, 0, 0};

  /// Event-sourced pair-violation log (checkpointed).
  std::vector<core::SeenTx> seen_txs_;
  /// Running count over seen_txs_[0, pairs_counted_). Derived state, not
  /// checkpointed: decode() empties it and the next seal counts the
  /// whole restored log.
  mutable core::PairViolationCounter pair_counter_;
  mutable std::size_t pairs_counted_ = 0;
};

}  // namespace cn::daemon
