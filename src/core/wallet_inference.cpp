#include "core/wallet_inference.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cn::core {

PoolAttribution::PoolAttribution(const btc::Chain& chain,
                                 const btc::CoinbaseTagRegistry& registry) {
  total_blocks_ = chain.size();
  first_height_ = chain.empty() ? 0 : chain.blocks().front().height();
  by_height_.assign(chain.size(), kNoPoolId);
  for (const btc::Block& block : chain.blocks()) {
    const auto pool = registry.identify(block.coinbase().tag);
    if (!pool.has_value()) {
      ++unidentified_;
      continue;
    }
    const PoolId id = intern(*pool);
    by_height_[block.height() - first_height_] = id;
    ++counts_[id];
    wallets_[id].insert(block.coinbase().reward_address);
  }
}

PoolId PoolAttribution::intern(const std::string& name) {
  const auto [it, inserted] = ids_.try_emplace(name, static_cast<PoolId>(names_.size()));
  if (inserted) {
    names_.push_back(name);
    counts_.push_back(0);
    wallets_.emplace_back();
  }
  return it->second;
}

const std::string& PoolAttribution::name_of(PoolId id) const {
  CN_ASSERT(id < names_.size());
  return names_[id];
}

std::optional<PoolId> PoolAttribution::id_of(const std::string& pool) const {
  const auto it = ids_.find(pool);
  if (it == ids_.end()) return std::nullopt;
  return it->second;
}

PoolId PoolAttribution::pool_id_at(std::uint64_t height) const noexcept {
  if (height < first_height_) return kNoPoolId;
  const std::uint64_t slot = height - first_height_;
  if (slot >= by_height_.size()) return kNoPoolId;
  return by_height_[slot];
}

std::uint64_t PoolAttribution::blocks_of(PoolId id) const noexcept {
  return id < counts_.size() ? counts_[id] : 0;
}

double PoolAttribution::hash_share(PoolId id) const noexcept {
  if (total_blocks_ == 0) return 0.0;
  return static_cast<double>(blocks_of(id)) / static_cast<double>(total_blocks_);
}

const std::unordered_set<btc::Address>& PoolAttribution::wallets_of(PoolId id) const {
  static const std::unordered_set<btc::Address> kEmpty;
  return id < wallets_.size() ? wallets_[id] : kEmpty;
}

std::vector<PoolId> PoolAttribution::pool_ids_by_blocks() const {
  std::vector<PoolId> ids(names_.size());
  for (PoolId id = 0; id < ids.size(); ++id) ids[id] = id;
  std::sort(ids.begin(), ids.end(), [this](PoolId a, PoolId b) {
    if (counts_[a] != counts_[b]) return counts_[a] > counts_[b];
    return names_[a] < names_[b];
  });
  return ids;
}

std::optional<std::string> PoolAttribution::pool_of(std::uint64_t height) const {
  const PoolId id = pool_id_at(height);
  if (id == kNoPoolId) return std::nullopt;
  return names_[id];
}

std::uint64_t PoolAttribution::blocks_of(const std::string& pool) const noexcept {
  const auto it = ids_.find(pool);
  return it == ids_.end() ? 0 : counts_[it->second];
}

double PoolAttribution::hash_share(const std::string& pool) const noexcept {
  if (total_blocks_ == 0) return 0.0;
  return static_cast<double>(blocks_of(pool)) / static_cast<double>(total_blocks_);
}

const std::unordered_set<btc::Address>& PoolAttribution::wallets_of(
    const std::string& pool) const {
  static const std::unordered_set<btc::Address> kEmpty;
  const auto it = ids_.find(pool);
  return it == ids_.end() ? kEmpty : wallets_[it->second];
}

std::vector<std::string> PoolAttribution::pools_by_blocks() const {
  std::vector<std::string> names;
  names.reserve(names_.size());
  for (const PoolId id : pool_ids_by_blocks()) names.push_back(names_[id]);
  return names;
}

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
