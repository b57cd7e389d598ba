#include "sim/acceleration.hpp"

#include <algorithm>
#include <cmath>

namespace cn::sim {

btc::Satoshi AccelerationService::quote(const btc::Transaction& tx, Rng& rng) const {
  const double multiplier = rng.lognormal(model_.log_mu, model_.log_sigma);
  const double base = static_cast<double>(tx.fee().value);
  double fee = base * multiplier;
  if (fee < static_cast<double>(model_.min_fee_sat))
    fee = static_cast<double>(model_.min_fee_sat);
  // Cap to keep satoshi arithmetic sane on the extreme tail.
  constexpr double kCap = 1e13;  // 100k BTC
  if (fee > kCap) fee = kCap;
  return btc::Satoshi{static_cast<std::int64_t>(fee)};
}

void AccelerationService::accelerate(const btc::Txid& id, std::string pool,
                                     btc::Satoshi paid) {
  by_pool_[std::move(pool)].insert(id);
  paid_.emplace(id, paid);
}

bool AccelerationService::is_accelerated(const btc::Txid& id) const noexcept {
  return paid_.contains(id);
}

std::vector<btc::Txid> AccelerationService::all_accelerated_sorted() const {
  std::vector<btc::Txid> out;
  out.reserve(paid_.size());
  for (const auto& [id, paid] : paid_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

const std::unordered_set<btc::Txid>& AccelerationService::accelerated_via(
    const std::string& pool) const {
  static const std::unordered_set<btc::Txid> kEmpty;
  const auto it = by_pool_.find(pool);
  return it == by_pool_.end() ? kEmpty : it->second;
}

btc::Satoshi AccelerationService::revenue_of(const std::string& pool) const {
  btc::Satoshi total{};
  const auto it = by_pool_.find(pool);
  if (it == by_pool_.end()) return total;
  for (const btc::Txid& id : it->second) {
    const auto it = paid_.find(id);
    if (it != paid_.end()) total += it->second;
  }
  return total;
}

}  // namespace cn::sim
