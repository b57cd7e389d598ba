// The observer node: a full node configured not to mine (paper §3).
// It receives transaction broadcasts, keeps its own Mempool, records a
// MempoolStat every 15 s, and logs each transaction's first-seen time —
// the t_i used by the pairwise violation analysis (§4.2.1). The log is a
// util::FlatMap (io::FirstSeenMap is the same type), so an accept
// appends one 40-byte entry and a bucket instead of allocating a hash
// node, and the CNB1 and CSV writers walk it densely before sorting.
#pragma once

#include <optional>

#include "btc/block.hpp"
#include "node/mempool.hpp"
#include "node/snapshot.hpp"
#include "util/flat_map.hpp"

namespace cn::node {

class ObserverNode {
 public:
  /// @p min_relay_sat_per_vb = 0 reproduces the data set B configuration
  /// (accept zero-fee transactions); the default reproduces data set A.
  explicit ObserverNode(std::int64_t min_relay_sat_per_vb = btc::kDefaultMinRelaySatPerVb)
      : mempool_(min_relay_sat_per_vb) {}

  /// Delivers a broadcast transaction at local time @p now. Returns the
  /// mempool acceptance verdict. First-seen time is logged on acceptance.
  AcceptResult on_transaction(const btc::Transaction& tx, SimTime now);

  /// Move overload: the simulator hands over its in-flight copy.
  AcceptResult on_transaction(btc::Transaction&& tx, SimTime now);

  /// Processes a newly mined block: evicts committed transactions.
  void on_block(const btc::Block& block);

  /// Records a periodic snapshot (caller controls the 15 s cadence).
  void record_snapshot(SimTime now);

  /// First time this observer saw @p id, if ever accepted.
  std::optional<SimTime> first_seen(const btc::Txid& id) const noexcept;

  /// Full first-seen log (for data-set export).
  const util::FlatMap<btc::Txid, SimTime>& first_seen_map() const noexcept {
    return first_seen_;
  }

  const Mempool& mempool() const noexcept { return mempool_; }
  const SnapshotSeries& snapshots() const noexcept { return series_; }

  /// Count of transactions this node rejected for being below its floor.
  std::uint64_t below_floor_count() const noexcept { return below_floor_; }

 private:
  Mempool mempool_;
  SnapshotSeries series_;
  util::FlatMap<btc::Txid, SimTime> first_seen_;
  std::uint64_t below_floor_ = 0;
};

}  // namespace cn::node
