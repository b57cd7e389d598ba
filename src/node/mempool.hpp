// The Mempool: the in-memory buffer of unconfirmed transactions a node
// selects from when mining (paper §2). Beyond queueing, it implements the
// admission machinery of a real node:
//  * norm III's minimum relay fee-rate (configurable off, as the paper's
//    data set B node was);
//  * conflict tracking and BIP-125-style replace-by-fee — the paper's
//    intro: "some transactions may be conflicting... at most one can be
//    included in the blockchain".
// The pool has no size cap or age expiry: an entry leaves only when it
// is committed or replaced (with its descendants).
//
// Storage is a slot map (DESIGN.md §7.3): entries live in a dense vector
// addressed by uint32 handles, freed slots are reused, and one Txid ->
// handle index serves lookups by id. Parent/child links and the conflict
// index hold handles, and the template builder reads the pool through
// the handle view below, so walking a package never hashes a txid. Both
// indexes are open-addressing util::FlatMaps, so an accept or a removal
// allocates no hash node.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "btc/amount.hpp"
#include "btc/transaction.hpp"
#include "util/flat_map.hpp"
#include "util/time.hpp"

namespace cn::node {

/// A transaction output reference (what inputs spend).
struct Outpoint {
  btc::Txid txid{};
  std::uint32_t vout = 0;

  bool operator==(const Outpoint&) const = default;
};

struct OutpointHash {
  std::size_t operator()(const Outpoint& o) const noexcept {
    return static_cast<std::size_t>(o.txid.short_id() ^
                                    (std::uint64_t{o.vout} * 0x9e3779b97f4a7c15ULL));
  }
};

/// Dense index of a queued entry. Valid while the entry stays queued; a
/// later accept() may reuse it for another transaction.
using MempoolHandle = std::uint32_t;
inline constexpr MempoolHandle kNoMempoolHandle = ~MempoolHandle{0};

struct MempoolEntry {
  btc::Transaction tx;
  SimTime arrival = 0;  ///< when this node first saw the transaction
  /// In-pool parents counted by accept(): one per input whose funding
  /// parent was queued at that moment. A parent gossiped in later is
  /// linked (ancestors_of() sees it) but not counted, and every departing
  /// parent link decrements the counter, saturating at 0. Zero means the
  /// template builder scores the transaction alone — its O(1) fast path.
  std::uint32_t in_pool_parents = 0;
};

enum class AcceptResult {
  kAccepted,          ///< queued (possibly after replacing conflicts)
  kDuplicate,         ///< already queued
  kBelowMinFeeRate,   ///< under the norm-III floor
  kConflictRejected,  ///< conflicts with queued txs and fails the RBF rules
};

/// Entry pointers handed out by find(), entries_by_arrival() and
/// ancestors_of() point into the slot vector: they stay valid until the
/// next accept() or removal.
class Mempool {
 public:
  using Handle = MempoolHandle;

  /// @p min_relay_sat_per_vb — norm III threshold; pass 0 to accept
  /// zero-fee transactions (data set B configuration).
  explicit Mempool(std::int64_t min_relay_sat_per_vb = btc::kDefaultMinRelaySatPerVb)
      : min_rate_(btc::FeeRate::from_sat_per_vb(min_relay_sat_per_vb)) {}

  AcceptResult accept(btc::Transaction tx, SimTime now);

  /// Removes a committed transaction; returns false if absent.
  /// Descendants stay queued (they become valid once the parent is
  /// confirmed, which is why a block template includes parents first).
  bool remove(const btc::Txid& id);

  bool contains(const btc::Txid& id) const noexcept;
  const MempoolEntry* find(const btc::Txid& id) const noexcept;

  std::size_t size() const noexcept { return index_.size(); }
  bool empty() const noexcept { return index_.empty(); }

  /// Aggregate virtual size of all queued transactions (congestion metric).
  std::uint64_t total_vsize() const noexcept { return total_vsize_; }

  btc::FeeRate min_relay_rate() const noexcept { return min_rate_; }

  /// Visits every entry (unspecified order); statically dispatched, as
  /// the per-entry call is on the template-build hot path.
  template <typename Fn>
  void for_each_entry(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.live) fn(slot.entry);
    }
  }

  /// Snapshot of entries sorted by arrival time (deterministic export).
  std::vector<const MempoolEntry*> entries_by_arrival() const;

  /// Unconfirmed in-mempool ancestors of @p id (transitively), excluding
  /// the transaction itself: a depth-first walk over inputs in input
  /// order, nearest parents first along each branch.
  std::vector<const MempoolEntry*> ancestors_of(const btc::Txid& id) const;

  /// Lifetime counter (diagnostics).
  std::uint64_t replaced_count() const noexcept { return replaced_; }

  // Handle view, read by the template builder (node/block_template.cpp).

  /// One past the highest handle issued: the size of handle-indexed arrays.
  std::uint32_t slot_count() const noexcept {
    return static_cast<std::uint32_t>(slots_.size());
  }

  /// The handle of queued @p id, or kNoMempoolHandle.
  Handle handle_of(const btc::Txid& id) const noexcept;

  /// The entry behind a queued handle.
  const MempoolEntry& entry(Handle h) const noexcept { return slots_[h].entry; }

  /// Per input of entry @p h, in input order: the queued parent it spends,
  /// or kNoMempoolHandle.
  std::span<const Handle> parents_of(Handle h) const noexcept {
    return slots_[h].parents;
  }

  /// Visits every queued entry with its handle, in handle order.
  template <typename Fn>
  void for_each_handle(Fn&& fn) const {
    for (Handle h = 0; h < slot_count(); ++h) {
      if (slots_[h].live) fn(h, slots_[h].entry);
    }
  }

 private:
  struct Slot {
    MempoolEntry entry;
    std::uint64_t seq = 0;          ///< accept order; sorts adopted children
    std::vector<Handle> parents;    ///< per input: queued parent, or none
    std::vector<Handle> children;   ///< one per spending input, (seq, input) order
    bool live = false;
  };

  void insert(btc::Transaction tx, SimTime now);
  /// Links queued spenders of @p parent's outputs that arrived before it.
  void adopt_children(Handle parent);
  void unlink(Handle h);
  /// Removes @p h and its descendants; updates all indexes.
  void remove_subtree(Handle h);
  std::vector<Handle> conflicting(const btc::Transaction& tx) const;
  std::vector<Handle> descendants(Handle h) const;

  /// BIP-125-style check: may @p tx replace the given conflicts?
  bool replacement_allowed(const btc::Transaction& tx,
                           const std::vector<Handle>& conflicts) const;

  std::vector<Slot> slots_;
  std::vector<Handle> free_;  ///< released slots, reused last-in first-out
  util::FlatMap<btc::Txid, Handle> index_;
  /// outpoint -> the queued tx spending it (conflict index).
  util::FlatMap<Outpoint, Handle, OutpointHash> spenders_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t total_vsize_ = 0;
  btc::FeeRate min_rate_;
  std::uint64_t replaced_ = 0;
};

}  // namespace cn::node
