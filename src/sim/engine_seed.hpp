// The original engine, kept verbatim as a differential oracle: tests
// prove sim::Engine reproduces it byte-for-byte. Do not optimize or
// otherwise touch this file: its value is that it never changes.
#pragma once

#include "sim/engine.hpp"

namespace cn::sim {

/// The seed engine: a global priority-queue discrete-event loop. Shares
/// EngineConfig/SimResult with the production Engine.
class SeedEngine {
 public:
  explicit SeedEngine(EngineConfig config);

  /// Runs the simulation to completion and returns the result.
  /// May be called once.
  SimResult run();

 private:
  struct Event {
    SimTime time = 0;
    std::uint64_t seq = 0;  ///< FIFO tie-break for equal times
    enum class Kind { kTxIssue, kObserverDeliver, kBlockFound, kSnapshot } kind{};
    /// Payload for kObserverDeliver.
    btc::Txid txid{};
    bool operator>(const Event& o) const noexcept {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void schedule(SimTime time, Event::Kind kind, const btc::Txid& txid = {});
  void handle_tx_issue(SimTime now);
  bool broadcast_tx(btc::Transaction tx, SimTime now);
  const btc::Transaction* pick_rbf_original();
  void handle_block_found(SimTime now);
  void refresh_fee_percentiles();
  std::size_t pick_winner();
  const btc::Transaction* pick_cpfp_parent();
  void request_acceleration(const btc::Transaction& tx);

  EngineConfig config_;
  Rng rng_workload_;
  Rng rng_blocks_;
  Rng rng_misc_;

  WorkloadGenerator workload_;
  std::vector<MiningPool> pools_;
  std::vector<double> pool_weights_;
  std::vector<double> payout_weights_;
  std::vector<std::size_t> accel_pool_indices_;
  node::Mempool canonical_;
  node::ObserverNode observer_;
  node::FeeEstimator estimator_;
  AccelerationService acceleration_;
  btc::Chain chain_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::uint64_t next_seq_ = 0;

  std::unordered_map<btc::Txid, btc::Transaction> in_flight_to_observer_;
  std::deque<std::pair<SimTime, btc::Txid>> recent_broadcasts_;
  std::deque<btc::Txid> cpfp_candidates_;
  std::deque<btc::Txid> rbf_candidates_;

  double rec_p25_ = 1.0, rec_p50_ = 2.0, rec_p75_ = 4.0;
  std::uint64_t height_ = 0;
  btc::Address scam_address_{};
  std::vector<btc::Txid> scam_txids_;
  std::unordered_map<btc::Txid, SimTime> broadcast_time_;
  std::uint64_t issued_count_ = 0;
  std::uint64_t rbf_replacements_ = 0;
  bool ran_ = false;
};

}  // namespace cn::sim
