#include "core/wallet_inference.hpp"

#include <algorithm>

namespace cn::core {

void WalletIndex::add(btc::Address wallet, PoolId pool) {
  std::vector<PoolId>& pools = pools_[wallet];
  if (std::find(pools.begin(), pools.end(), pool) == pools.end()) pools.push_back(pool);
}

void WalletIndex::pools_of(const btc::Transaction& tx,
                           std::vector<PoolId>& pools) const {
  pools.clear();
  const auto note = [&](const btc::Address& a) {
    const auto it = pools_.find(a);
    if (it == pools_.end()) return;
    for (const PoolId p : it->second) {
      if (std::find(pools.begin(), pools.end(), p) == pools.end()) pools.push_back(p);
    }
  };
  for (const btc::TxInput& in : tx.inputs()) note(in.owner);
  for (const btc::TxOutput& out : tx.outputs()) note(out.to);
}

}  // namespace cn::core
