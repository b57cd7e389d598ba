#include "node/observer.hpp"

#include <utility>

namespace cn::node {

AcceptResult ObserverNode::on_transaction(const btc::Transaction& tx, SimTime now) {
  return on_transaction(btc::Transaction(tx), now);
}

AcceptResult ObserverNode::on_transaction(btc::Transaction&& tx, SimTime now) {
  const btc::Txid id = tx.id();
  const AcceptResult result = mempool_.accept(std::move(tx), now);
  switch (result) {
    case AcceptResult::kAccepted:
      first_seen_.emplace(id, now);
      break;
    case AcceptResult::kBelowMinFeeRate:
      ++below_floor_;
      break;
    case AcceptResult::kDuplicate:
    case AcceptResult::kConflictRejected:
      break;
  }
  return result;
}

void ObserverNode::on_block(const btc::Block& block) {
  for (const btc::Transaction& tx : block.txs()) mempool_.remove(tx.id());
}

void ObserverNode::record_snapshot(SimTime now) {
  series_.record(MempoolStat{now, mempool_.size(), mempool_.total_vsize()});
}

std::optional<SimTime> ObserverNode::first_seen(const btc::Txid& id) const noexcept {
  const auto it = first_seen_.find(id);
  if (it == first_seen_.end()) return std::nullopt;
  return it->second;
}

}  // namespace cn::node
