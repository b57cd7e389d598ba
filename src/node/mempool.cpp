#include "node/mempool.hpp"

#include <algorithm>
#include <tuple>
#include <unordered_set>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace cn::node {

namespace {

bool is_real_outpoint(const btc::TxInput& in) { return !in.prev_txid.is_null(); }

/// Admission telemetry (DESIGN.md §10), aggregated across every Mempool
/// instance in the process (the per-instance replaced_ member remains the
/// authoritative per-pool number).
struct MempoolMetrics {
  obs::Counter accepted{"node.mempool.accepted"};
  obs::Counter rejected_duplicate{"node.mempool.rejected_duplicate"};
  obs::Counter rejected_min_fee{"node.mempool.rejected_min_fee"};
  obs::Counter rejected_conflict{"node.mempool.rejected_conflict"};
  obs::Counter replaced{"node.mempool.replaced"};
};

MempoolMetrics& metrics() {
  static MempoolMetrics* m = new MempoolMetrics();  // interned once per process
  return *m;
}

}  // namespace

Mempool::Handle Mempool::handle_of(const btc::Txid& id) const noexcept {
  const auto it = index_.find(id);
  return it == index_.end() ? kNoMempoolHandle : it->second;
}

std::vector<Mempool::Handle> Mempool::conflicting(const btc::Transaction& tx) const {
  // Transactions have a handful of inputs at most, so dedup by linear
  // scan; this runs once per accept() and must not allocate when there
  // are no conflicts (the overwhelmingly common case).
  std::vector<Handle> out;
  for (const btc::TxInput& in : tx.inputs()) {
    if (!is_real_outpoint(in)) continue;
    const auto it = spenders_.find({in.prev_txid, in.prev_vout});
    if (it == spenders_.end()) continue;
    if (std::find(out.begin(), out.end(), it->second) == out.end())
      out.push_back(it->second);
  }
  return out;
}

bool Mempool::replacement_allowed(const btc::Transaction& tx,
                                  const std::vector<Handle>& conflicts) const {
  // Simplified BIP-125: the replacement must pay strictly more in absolute
  // fee than everything it evicts (conflicts plus their descendants), and
  // offer a strictly higher fee-rate than each directly conflicting tx.
  btc::Satoshi evicted_fees{};
  for (const Handle h : conflicts) {
    const btc::Transaction& victim = slots_[h].entry.tx;
    if (tx.fee_rate() <= victim.fee_rate()) return false;
    evicted_fees += victim.fee();
    for (const Handle d : descendants(h)) evicted_fees += slots_[d].entry.tx.fee();
  }
  return tx.fee() > evicted_fees;
}

AcceptResult Mempool::accept(btc::Transaction tx, SimTime now) {
  MempoolMetrics& m = metrics();
  if (index_.contains(tx.id())) {
    m.rejected_duplicate.add();
    return AcceptResult::kDuplicate;
  }
  if (min_rate_.valid() && min_rate_.fee().value > 0 && tx.fee_rate() < min_rate_) {
    m.rejected_min_fee.add();
    return AcceptResult::kBelowMinFeeRate;
  }

  const std::vector<Handle> conflicts = conflicting(tx);
  if (!conflicts.empty()) {
    if (!replacement_allowed(tx, conflicts)) {
      m.rejected_conflict.add();
      return AcceptResult::kConflictRejected;
    }
    for (const Handle h : conflicts) {
      ++replaced_;
      m.replaced.add();
      remove_subtree(h);
    }
  }

  insert(std::move(tx), now);
  m.accepted.add();
  return AcceptResult::kAccepted;
}

void Mempool::insert(btc::Transaction tx, SimTime now) {
  Handle h;
  if (free_.empty()) {
    h = static_cast<Handle>(slots_.size());
    CN_ASSERT(h != kNoMempoolHandle);
    slots_.emplace_back();
  } else {
    h = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[h];
  slot.live = true;
  slot.seq = next_seq_++;
  const std::span<const btc::TxInput> inputs = tx.inputs();
  slot.parents.assign(inputs.size(), kNoMempoolHandle);
  std::uint32_t in_pool_parents = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const btc::TxInput& in = inputs[i];
    if (!is_real_outpoint(in)) continue;
    spenders_.emplace(Outpoint{in.prev_txid, in.prev_vout}, h);
    const Handle parent = handle_of(in.prev_txid);
    if (parent == kNoMempoolHandle) continue;
    slot.parents[i] = parent;
    slots_[parent].children.push_back(h);
    ++in_pool_parents;
  }
  total_vsize_ += tx.vsize();
  index_.emplace(tx.id(), h);
  slot.entry = MempoolEntry{std::move(tx), now, in_pool_parents};
  adopt_children(h);
}

void Mempool::adopt_children(Handle parent) {
  // Gossip can deliver a child before its parent. Such children already
  // sit in the conflict index under this transaction's outpoints; link
  // each spending input now, in the (accept order, input) order a child
  // arriving after the parent would have had. Their in_pool_parents
  // counters stay as accept() set them (see MempoolEntry).
  const btc::Transaction& tx = slots_[parent].entry.tx;
  std::vector<std::tuple<std::uint64_t, std::size_t, Handle>> adopted;
  for (std::uint32_t vout = 0; vout < tx.outputs().size(); ++vout) {
    const auto it = spenders_.find(Outpoint{tx.id(), vout});
    if (it == spenders_.end()) continue;
    const Handle spender = it->second;
    Slot& child = slots_[spender];
    const std::span<const btc::TxInput> inputs = child.entry.tx.inputs();
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      if (inputs[i].prev_txid != tx.id() || inputs[i].prev_vout != vout) continue;
      child.parents[i] = parent;
      adopted.emplace_back(child.seq, i, spender);
    }
  }
  std::sort(adopted.begin(), adopted.end());
  for (const auto& [seq, input, child] : adopted) slots_[parent].children.push_back(child);
}

void Mempool::unlink(Handle h) {
  Slot& slot = slots_[h];
  CN_ASSERT(slot.live);
  // The departing parent's children lose one counted parent per link
  // (one link per spending input, matching the per-input increment in
  // insert()) and forget the link itself.
  for (const Handle child : slot.children) {
    Slot& c = slots_[child];
    if (c.entry.in_pool_parents > 0) --c.entry.in_pool_parents;
    std::replace(c.parents.begin(), c.parents.end(), h, kNoMempoolHandle);
  }
  const btc::Transaction& tx = slot.entry.tx;
  total_vsize_ -= tx.vsize();
  const std::span<const btc::TxInput> inputs = tx.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const btc::TxInput& in = inputs[i];
    if (!is_real_outpoint(in)) continue;
    if (const Handle parent = slot.parents[i]; parent != kNoMempoolHandle) {
      auto& kids = slots_[parent].children;
      kids.erase(std::remove(kids.begin(), kids.end(), h), kids.end());
    }
    const Outpoint spent{in.prev_txid, in.prev_vout};
    const auto it = spenders_.find(spent);
    if (it != spenders_.end() && it->second == h) spenders_.erase(spent);
  }
  index_.erase(tx.id());
  slot.live = false;
  slot.entry = MempoolEntry{};  // release the transaction's buffers now
  slot.parents.clear();
  slot.children.clear();
  free_.push_back(h);
}

std::vector<Mempool::Handle> Mempool::descendants(Handle h) const {
  std::vector<Handle> out;
  std::vector<Handle> frontier{h};
  std::unordered_set<Handle> seen;
  while (!frontier.empty()) {
    const Handle cur = frontier.back();
    frontier.pop_back();
    for (const Handle child : slots_[cur].children) {
      if (!seen.insert(child).second) continue;
      out.push_back(child);
      frontier.push_back(child);
    }
  }
  return out;
}

void Mempool::remove_subtree(Handle h) {
  const std::vector<Handle> doomed = descendants(h);
  // Remove deepest-first is unnecessary (unlink is order-independent).
  unlink(h);
  for (const Handle d : doomed) unlink(d);
}

bool Mempool::remove(const btc::Txid& id) {
  const Handle h = handle_of(id);
  if (h == kNoMempoolHandle) return false;
  unlink(h);
  return true;
}

bool Mempool::contains(const btc::Txid& id) const noexcept {
  return index_.contains(id);
}

const MempoolEntry* Mempool::find(const btc::Txid& id) const noexcept {
  const Handle h = handle_of(id);
  return h == kNoMempoolHandle ? nullptr : &slots_[h].entry;
}

std::vector<const MempoolEntry*> Mempool::entries_by_arrival() const {
  std::vector<const MempoolEntry*> out;
  out.reserve(size());
  for_each_entry([&](const MempoolEntry& entry) { out.push_back(&entry); });
  std::sort(out.begin(), out.end(),
            [](const MempoolEntry* a, const MempoolEntry* b) {
              if (a->arrival != b->arrival) return a->arrival < b->arrival;
              return a->tx.id() < b->tx.id();  // deterministic tie-break
            });
  return out;
}

std::vector<const MempoolEntry*> Mempool::ancestors_of(const btc::Txid& id) const {
  std::vector<const MempoolEntry*> out;
  const Handle h = handle_of(id);
  if (h == kNoMempoolHandle) return out;
  std::vector<Handle> frontier{h};
  std::unordered_set<Handle> seen;
  while (!frontier.empty()) {
    const Handle cur = frontier.back();
    frontier.pop_back();
    for (const Handle parent : slots_[cur].parents) {
      if (parent == kNoMempoolHandle || !seen.insert(parent).second) continue;
      out.push_back(&slots_[parent].entry);
      frontier.push_back(parent);
    }
  }
  return out;
}

}  // namespace cn::node
