// Incremental audit accumulators: cnauditd's per-pool neutrality
// scorecards, kept current one block at a time.
//
// Per pool the daemon keeps a core::NeutralityTally, the running sums
// core::neutrality_reports fills from a whole dataset: each block's
// core::block_columns feed the miner's tally, the block counts as a
// c-block for every pool whose wallets it touches, and a seal turns the
// tallies into scorecards with core::neutrality_report. The only
// difference from batch is when wallets enter the core::WalletIndex:
// the daemon adds a coinbase's wallet when its block arrives, so
// self-interest is *prequential* — the honest online-observer stance (a
// watchdog cannot use wallets announced in next month's coinbases).
// Self-dealing x/y may lag batch early in a stream and converge as
// wallets are learned. DESIGN.md §13 records this contract.
//
// Everything here is deterministic and serializable: apply order is
// defined (attribute + learn wallet, then norms, then self-interest),
// doubles round-trip bit-exactly through encode/decode (the state) and
// encode_log/decode_log (the pair-violation event log, which a
// checkpoint appends to a segment file instead of rewriting), and report
// JSON is rendered with a fixed format — the foundations of the
// crash-safety invariant (kill anywhere, restart from checkpoint,
// byte-identical report).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "btc/chain.hpp"
#include "btc/coinbase_tags.hpp"
#include "core/congestion.hpp"
#include "core/neutrality.hpp"
#include "core/pair_violations.hpp"
#include "core/wallet_inference.hpp"
#include "node/snapshot.hpp"

namespace cn::daemon {

/// The pair-violation count's arrival slack and CPFP filter (core's
/// epsilon and exclude_cpfp), and the block budget the congestion bins
/// are relative to.
inline constexpr SimTime kPairEpsilon = 0;
inline constexpr bool kPairExcludeCpfp = true;
inline constexpr std::uint64_t kCongestionUnitVsize = 1'000'000;

struct AccumulatorOptions {
  core::NeutralityOptions neutrality;  ///< same thresholds as batch

  /// Digest of the thresholds above and the constants the accumulators
  /// apply. Checkpoints embed it; restoring under different options is
  /// a typed error, not a silently wrong report.
  std::uint64_t fingerprint() const noexcept;
};

/// Running per-pool state, in intern (first-block-seen) order.
struct PoolState {
  std::string name;
  core::NeutralityTally tally;
  /// Reward wallets learned from this pool's coinbases so far, ordered
  /// so equal states encode to equal bytes.
  std::set<btc::Address> wallets;
};

class AuditAccumulators {
 public:
  AuditAccumulators(const btc::CoinbaseTagRegistry& registry,
                    AccumulatorOptions options = {});

  /// Applies one committed block. @p first_seen resolves observer
  /// arrival times for the pair-violation log (entries it cannot
  /// resolve are skipped, and the fields are the ones
  /// core::collect_seen_txs reads).
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
  //
  // The state splits in two for the checkpoint's two files. encode()
  // writes everything but the pair-violation event log: totals,
  // congestion bins, pools and their wallets — a few KB whatever the
  // stream length. The log, which grows by every committed transaction
  // the observer saw, travels as fixed-size records through
  // encode_log()/decode_log(), so a checkpoint can append only the
  // records added since the last one.

  /// Bytes per event-log record: i64 first-seen, f64 fee-rate bits, u64
  /// height, u8 CPFP flags.
  static constexpr std::size_t kLogRecordBytes = 25;

  /// Appends the accumulator state without the event log (bit-exact
  /// doubles, wallets sorted by address so equal states encode to equal
  /// bytes) to @p out.
  void encode(std::vector<std::uint8_t>& out) const;

  /// Restores state from encode()'s output and empties the event log.
  /// On failure returns false with *error set; the accumulator is left
  /// in an unspecified state and must be discarded.
  bool decode(const std::uint8_t* data, std::size_t size, std::string* error);

  /// Records in the event log.
  std::size_t log_size() const noexcept { return seen_txs_.size(); }

  /// Appends event-log records [@p from, log_size()) to @p out,
  /// kLogRecordBytes each. @p from must not exceed log_size().
  void encode_log(std::size_t from, std::vector<std::uint8_t>& out) const;

  /// Appends the records in @p data (encode_log()'s output) to the event
  /// log. Fails with *error set when @p size is not a whole number of
  /// records; the accumulator must then be discarded.
  bool decode_log(const std::uint8_t* data, std::size_t size, std::string* error);

  const AccumulatorOptions& options() const noexcept { return options_; }
  std::uint64_t registry_fingerprint() const noexcept {
    return registry_->fingerprint();
  }

 private:
  std::uint32_t intern(const std::string& name);

  const btc::CoinbaseTagRegistry* registry_;
  AccumulatorOptions options_;

  std::vector<PoolState> pools_;
  std::unordered_map<std::string, std::uint32_t> pool_ids_;
  /// Every wallet in pools_[i].wallets, indexed to pool i.
  core::WalletIndex wallets_;

  std::uint64_t total_blocks_ = 0;
  std::uint64_t total_txs_ = 0;
  std::uint64_t unidentified_ = 0;
  std::uint64_t last_seq_ = 0;

  std::uint64_t snapshot_count_ = 0;
  std::uint64_t pending_tx_sum_ = 0;
  std::uint64_t max_total_vsize_ = 0;
  std::uint64_t congestion_levels_[4] = {0, 0, 0, 0};

  /// Event-sourced pair-violation log (checkpointed by encode_log()).
  std::vector<core::SeenTx> seen_txs_;
  /// Running count over seen_txs_[0, pairs_counted_). Derived state, not
  /// checkpointed: decode() empties it and the next seal counts the
  /// whole restored log.
  mutable core::PairViolationCounter pair_counter_;
  mutable std::size_t pairs_counted_ = 0;
};

}  // namespace cn::daemon
