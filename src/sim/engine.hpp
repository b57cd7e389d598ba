// The discrete-event simulator that stands in for the live Bitcoin
// network: users broadcast transactions, the P2P layer delays them
// per-node, pools win blocks proportionally to hash share and fill them
// through their policy stacks, and an observer full node records 15 s
// Mempool snapshots — producing exactly the observables the paper's data
// sets contain.
//
// Each accepted broadcast takes the next issue number (0, 1, 2, ...).
// The engine's per-transaction state is keyed on it: delivery events
// carry it, the observer's in-flight copies sit in a deque indexed by
// it, and a committed bit per issue number tells delivery whether a
// block already took the transaction. Txids stay at the mempool, chain
// and export boundary (DESIGN.md §12).
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <queue>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btc/chain.hpp"
#include "btc/rewards.hpp"
#include "node/fee_estimator.hpp"
#include "node/observer.hpp"
#include "sim/acceleration.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "sim/workload.hpp"

namespace cn::sim {

struct EngineConfig {
  std::uint64_t seed = 1;
  SimTime duration = 7 * kDay;
  std::uint64_t genesis_height = 600'000;
  double mean_block_interval_s = 600.0;

  /// Block virtual-size budget, *including* the coinbase allowance.
  /// Scaled-down experiments shrink this (and with it, the congestion
  /// thresholds, which are always expressed relative to this budget).
  std::uint64_t max_block_vsize = 100'000;

  /// Probability a winning pool mines an empty (SPV) block.
  double empty_block_fraction = 0.005;

  /// Fee-only (zero-subsidy) regime: coinbase rewards carry only the
  /// collected fees, modelling the post-subsidy era the BitcoinF /
  /// fee-model papers study. Default off keeps the historical subsidy
  /// schedule (and byte-identical worlds).
  bool fee_only = false;

  std::vector<PoolSpec> pools;  ///< shares are normalized internally
  WorkloadConfig workload;

  /// Observer relay floor: 1 sat/vB reproduces data set A's node, 0
  /// reproduces data set B's (accept everything).
  std::int64_t observer_min_relay_sat_per_vb = btc::kDefaultMinRelaySatPerVb;

  PropagationModel propagation;
  QuoteModel quote_model;

  /// When false, every pool sees every pending transaction instantly
  /// (useful for isolating policy effects in tests).
  bool propagation_exclusion = true;

  /// Wall-clock budget for run() in seconds; 0 = unlimited. A run that
  /// exceeds it stops at the next deadline check (every few thousand
  /// events) and reports the overrun with partial-progress diagnostics
  /// in SimResult::timeout instead of hanging a batch job forever. The partial chain is
  /// returned as-is: internally consistent, just shorter than asked.
  double deadline_s = 0.0;
};

/// Diagnostics for a run cut short by EngineConfig::deadline_s.
struct SimTimeout {
  bool timed_out = false;       ///< the deadline fired
  double elapsed_s = 0.0;       ///< wall clock spent when it fired
  SimTime sim_time_reached = 0; ///< simulated progress at the cut
  SimTime sim_duration = 0;     ///< what was asked for (config.duration)
  std::uint64_t events_processed = 0;
  std::uint64_t blocks_committed = 0;

  /// One-line "deadline exceeded after Xs: reached t=A of B (N events,
  /// M blocks)" description for logs and CLI errors.
  std::string describe() const;
};

/// Everything a post-hoc audit can see, plus the simulator's ground truth
/// (which real auditors lack — used here to validate the detectors).
struct SimResult {
  EngineConfig config;
  btc::Chain chain;
  node::ObserverNode observer;
  AccelerationService acceleration;  ///< ground truth + public query API
  std::unordered_map<std::string, std::vector<btc::Address>> pool_wallets;
  btc::Address scam_address{};
  std::vector<btc::Txid> scam_txids;
  std::uint64_t issued_count = 0;
  std::uint64_t rbf_replacements = 0;  ///< accepted fee bumps
  SimTimeout timeout;  ///< set when config.deadline_s fired mid-run
};

class Engine {
 public:
  explicit Engine(EngineConfig config);

  /// Runs the simulation to completion and returns the result.
  /// May be called once.
  SimResult run();

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal times
    enum class Kind { kTxIssue, kObserverDeliver, kBlockFound, kSnapshot } kind{};
    /// Payload for kObserverDeliver: the broadcast's issue number.
    std::uint32_t issue = 0;
    bool operator>(const Event& o) const noexcept {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void schedule(SimTime time, Event::Kind kind, std::uint32_t issue = 0);
  void handle_tx_issue(SimTime now);
  /// Shared broadcast path: canonical acceptance, issue numbering and
  /// observer delivery scheduling. Returns false when the canonical
  /// mempool rejected the transaction (e.g. an under-paying RBF bump).
  bool broadcast_tx(btc::Transaction tx, SimTime now);
  /// Hands broadcast @p issue's in-flight copy to the observer, unless a
  /// block already committed it.
  void deliver_to_observer(std::uint32_t issue, SimTime now);
  /// A pending low-fee transaction the issuing user may fee-bump.
  const btc::Transaction* pick_rbf_original();
  void handle_block_found(SimTime now);
  void refresh_fee_percentiles();
  std::size_t pick_winner();
  const btc::Transaction* pick_cpfp_parent();
  void request_acceleration(const btc::Transaction& tx);
  /// Drops exclusion-window expirees from recent_broadcasts_;
  /// amortized O(1) when called once per event.
  void prune_recent_broadcasts(SimTime now);
  /// Builds the propagation-exclusion set for @p winner at @p now.
  std::unordered_set<btc::Txid> propagation_exclude(SimTime now,
                                                    const MiningPool& winner);
  /// Everything after block selection: coinbase, mempool eviction,
  /// observer and estimator updates, chain append.
  void commit_block(SimTime now, MiningPool& winner, node::BlockTemplate tpl);

  /// The event loop (byte-identical to the seed engine); leaves its
  /// results in the member state consumed by run().
  void run_events();
  void flush_sim_metrics();

  EngineConfig config_;
  Rng rng_workload_;
  Rng rng_blocks_;
  Rng rng_misc_;

  WorkloadGenerator workload_;
  std::vector<MiningPool> pools_;
  std::vector<double> pool_weights_;
  std::vector<double> payout_weights_;  ///< share * self_tx_weight
  std::vector<std::size_t> accel_pool_indices_;  ///< pools selling service
  node::Mempool canonical_;  ///< the union view (no floor)
  node::ObserverNode observer_;
  node::FeeEstimator estimator_;
  AccelerationService acceleration_;
  btc::Chain chain_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::uint64_t next_seq_ = 0;

  /// Copies of accepted broadcasts on their way to the observer, indexed
  /// by issue number minus in_flight_base_. Delivery empties an entry,
  /// and empty entries are popped from the front, so the deque spans the
  /// propagation delay, not the run.
  std::deque<std::optional<btc::Transaction>> in_flight_;
  std::uint32_t in_flight_base_ = 0;  ///< issue number of in_flight_.front()
  /// Issue number of each queued canonical entry, by mempool handle;
  /// written at broadcast, read at commit.
  std::vector<std::uint32_t> issue_of_handle_;
  /// Per issue number: some block committed the transaction.
  std::vector<bool> committed_;
  /// Recently broadcast txids (for propagation exclusion at block time),
  /// pruned once per event.
  std::deque<std::pair<SimTime, btc::Txid>> recent_broadcasts_;
  /// Candidate CPFP parents (pending, low fee).
  std::deque<btc::Txid> cpfp_candidates_;
  /// Candidates for owner fee bumps (pending, low fee).
  std::deque<btc::Txid> rbf_candidates_;

  double rec_p25_ = 1.0, rec_p50_ = 2.0, rec_p75_ = 4.0;
  std::uint64_t height_ = 0;
  btc::Address scam_address_{};
  std::vector<btc::Txid> scam_txids_;
  std::uint64_t issued_count_ = 0;  ///< also the next issue number
  std::uint64_t rbf_replacements_ = 0;
  bool ran_ = false;

  /// Wall-clock deadline bookkeeping (config_.deadline_s).
  /// deadline_check() is called periodically by the event loop; it stamps
  /// timeout_ and returns true once the budget is spent.
  bool deadline_check(SimTime sim_now);
  std::chrono::steady_clock::time_point run_start_{};
  SimTimeout timeout_;

  /// Batched sim telemetry (flushed to cn::obs once per run, keeping the
  /// instrumentation overhead far under the 2% gate).
  std::uint64_t stat_events_ = 0;          ///< events processed
  std::uint64_t stat_rbf_decisions_ = 0;   ///< RBF bump attempts
  std::uint64_t stat_cpfp_decisions_ = 0;  ///< CPFP parent picks
};

}  // namespace cn::sim
