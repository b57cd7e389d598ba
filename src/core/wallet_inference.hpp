// Block attribution and pool-wallet inference (§5.2, Figure 8).
//
// The audit never consults the simulator's ground truth: exactly as the
// paper does, it (1) attributes each block to a pool by its coinbase
// marker, (2) collects the reward wallets each pool names in its Coinbase
// transactions, and (3) flags as "self-interest" every committed
// transaction spending from or paying to one of those wallets (the
// per-pool lists core::AuditDataset builds from this attribution).
//
// Pool names are interned on first sight: every pool gets a dense PoolId
// so downstream accumulators can be plain vectors indexed by id instead
// of string-keyed hash maps. The string API below is a thin facade over
// the interned representation.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "btc/chain.hpp"
#include "btc/coinbase_tags.hpp"

namespace cn::core {

/// Dense interned pool id, assigned in block-attribution order.
using PoolId = std::uint32_t;
inline constexpr PoolId kNoPoolId = ~PoolId{0};

class PoolAttribution {
 public:
  PoolAttribution() = default;

  /// Scans the chain once, attributing blocks and collecting wallets.
  PoolAttribution(const btc::Chain& chain, const btc::CoinbaseTagRegistry& registry);

  // --- interned API -------------------------------------------------

  std::size_t pool_count() const noexcept { return names_.size(); }

  /// Name of an interned pool; @p id must be < pool_count().
  const std::string& name_of(PoolId id) const;

  /// Id for a pool name, if any block was attributed to it.
  std::optional<PoolId> id_of(const std::string& pool) const;

  /// Pool that mined the block at @p height (kNoPoolId when
  /// unidentified or outside the attributed chain).
  PoolId pool_id_at(std::uint64_t height) const noexcept;

  std::uint64_t blocks_of(PoolId id) const noexcept;
  double hash_share(PoolId id) const noexcept;
  const std::unordered_set<btc::Address>& wallets_of(PoolId id) const;

  /// Interned ids ordered by descending block count (ties by name).
  std::vector<PoolId> pool_ids_by_blocks() const;

  // --- string facade -------------------------------------------------

  /// Pool that mined the block at @p height (nullopt when unidentified).
  std::optional<std::string> pool_of(std::uint64_t height) const;

  std::uint64_t blocks_of(const std::string& pool) const noexcept;
  std::uint64_t unidentified_blocks() const noexcept { return unidentified_; }
  std::uint64_t total_blocks() const noexcept { return total_blocks_; }

  /// Normalized hash rate estimate: blocks_of(pool) / total_blocks.
  double hash_share(const std::string& pool) const noexcept;

  /// Reward wallets observed in the pool's coinbases.
  const std::unordered_set<btc::Address>& wallets_of(const std::string& pool) const;

  /// Pool names ordered by descending block count.
  std::vector<std::string> pools_by_blocks() const;

 private:
  PoolId intern(const std::string& name);

  std::vector<std::string> names_;                            // PoolId -> name
  std::unordered_map<std::string, PoolId> ids_;               // name -> PoolId
  std::uint64_t first_height_ = 0;
  std::vector<PoolId> by_height_;                             // dense by height
  std::vector<std::uint64_t> counts_;                         // PoolId-indexed
  std::vector<std::unordered_set<btc::Address>> wallets_;     // PoolId-indexed
  std::uint64_t unidentified_ = 0;
  std::uint64_t total_blocks_ = 0;
};

/// Step (3) for one transaction: an index from reward wallets to the
/// pools that named them (almost always one; a list keeps colliding
/// tags correct). The batch audit adds every pool's wallets before it
/// scans; cnauditd adds a coinbase's wallet when its block arrives.
class WalletIndex {
 public:
  /// Records that @p pool named @p wallet; a repeat is a no-op.
  void add(btc::Address wallet, PoolId pool);

  /// Sets @p pools to the pools whose wallets @p tx spends from or pays
  /// to, each once.
  void pools_of(const btc::Transaction& tx, std::vector<PoolId>& pools) const;

 private:
  std::unordered_map<btc::Address, std::vector<PoolId>> pools_;
};

}  // namespace cn::core
