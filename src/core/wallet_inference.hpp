// Pool ids and the self-interest wallet index (§5.2, Figure 8).
//
// The audit never consults the simulator's ground truth: exactly as the
// paper does, it (1) attributes each block to a pool by its coinbase
// marker, (2) collects the reward wallets each pool names in its Coinbase
// transactions, and (3) flags as "self-interest" every committed
// transaction spending from or paying to one of those wallets. The batch
// audit does all three in core::AuditDataset::build, which interns each
// pool as a dense PoolId so downstream accumulators are plain vectors
// indexed by id; cnauditd's accumulators keep their own prequential
// table. Both use the WalletIndex below for step (3).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "btc/transaction.hpp"

namespace cn::core {

/// Dense interned pool id, assigned in chain order of first appearance.
using PoolId = std::uint32_t;
inline constexpr PoolId kNoPoolId = ~PoolId{0};

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
