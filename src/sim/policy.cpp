#include "sim/policy.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cn::sim {

namespace {

bool involves_any(const btc::Transaction& tx,
                  const std::unordered_set<btc::Address>& wallets) {
  for (const btc::TxInput& in : tx.inputs())
    if (wallets.contains(in.owner)) return true;
  for (const btc::TxOutput& out : tx.outputs())
    if (wallets.contains(out.to)) return true;
  return false;
}

}  // namespace

void SelfInterestPolicy::apply(node::TemplateOptions& options,
                               const node::Mempool& mempool,
                               const PolicyContext& ctx) const {
  CN_ASSERT(ctx.own_wallets != nullptr);
  mempool.for_each_entry([&](const node::MempoolEntry& entry) {
    if (involves_any(entry.tx, *ctx.own_wallets)) {
      options.fee_deltas[entry.tx.id()] += kPriorityBoost;
    }
  });
}

void CollusionPolicy::apply(node::TemplateOptions& options,
                            const node::Mempool& mempool,
                            const PolicyContext& ctx) const {
  if (ctx.partner_wallets.empty()) return;
  mempool.for_each_entry([&](const node::MempoolEntry& entry) {
    for (const auto* wallets : ctx.partner_wallets) {
      // A partner slot may legitimately be empty (a pool that colludes
      // with a wallet-less or unknown partner); skip, never deref.
      if (wallets == nullptr || wallets->empty()) continue;
      if (involves_any(entry.tx, *wallets)) {
        options.fee_deltas[entry.tx.id()] += kPriorityBoost;
        break;
      }
    }
  });
}

void DarkFeePolicy::apply(node::TemplateOptions& options,
                          const node::Mempool& mempool,
                          const PolicyContext& ctx) const {
  if (ctx.acceleration == nullptr) return;
  // Iterate the (small) accelerated set rather than the mempool.
  for (const btc::Txid& id : ctx.acceleration->accelerated_via(ctx.pool_name)) {
    if (mempool.contains(id)) options.fee_deltas[id] += kPriorityBoost;
  }
}

void CensorshipPolicy::apply(node::TemplateOptions& options,
                             const node::Mempool& mempool,
                             const PolicyContext&) const {
  mempool.for_each_entry([&](const node::MempoolEntry& entry) {
    if (involves_any(entry.tx, blacklist_)) options.exclude.insert(entry.tx.id());
  });
}

void CourtesyBoostPolicy::apply(node::TemplateOptions& options,
                                const node::Mempool& mempool,
                                const PolicyContext& ctx) const {
  // Deterministic coin flip keyed on (pool, height).
  std::uint64_t state =
      stable_hash64(ctx.pool_name) ^ (ctx.height * 0xd1b54a32d192ed03ULL);
  const double u =
      static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  if (u >= probability_) return;

  // Pick the pending low-fee transaction minimizing a height-keyed hash —
  // a pseudo-random choice that is stable for replay.
  const btc::Txid* chosen = nullptr;
  std::uint64_t best = ~std::uint64_t{0};
  mempool.for_each_entry([&](const node::MempoolEntry& entry) {
    if (entry.tx.fee_rate().sat_per_vbyte() >= 5.0) return;
    std::uint64_t h = entry.tx.id().short_id() ^ ctx.height;
    h = splitmix64(h);
    if (h < best) {
      best = h;
      chosen = &entry.tx.id();
    }
  });
  if (chosen != nullptr) options.fee_deltas[*chosen] += kPriorityBoost;
}

void LowFeeTolerancePolicy::apply(node::TemplateOptions& options,
                                  const node::Mempool&,
                                  const PolicyContext& ctx) const {
  CN_ASSERT(period_ > 0);
  // Deterministic pseudo-random choice keyed on (pool, height).
  const std::uint64_t h =
      stable_hash64(ctx.pool_name) ^ (ctx.height * 0x9e3779b97f4a7c15ULL);
  std::uint64_t state = h;
  if (splitmix64(state) % period_ == 0) {
    options.min_rate = btc::FeeRate{};  // lift the floor entirely
  }
}

void WithholdingPolicy::apply(node::TemplateOptions& options,
                              const node::Mempool& mempool,
                              const PolicyContext& ctx) const {
  if (delay_s_ <= 0.0) return;
  // The block being published now was actually assembled delay_s ago:
  // anything that entered the network since then cannot be in it.
  const SimTime cutoff = ctx.now - delay_s_;
  mempool.for_each_entry([&](const node::MempoolEntry& entry) {
    if (entry.arrival > cutoff) options.exclude.insert(entry.tx.id());
  });
}

void EvasiveSelfInterestPolicy::apply(node::TemplateOptions& options,
                                      const node::Mempool& mempool,
                                      const PolicyContext& ctx) const {
  if (theta_ <= 0.0) return;  // fully evasive == honest, byte-identical
  CN_ASSERT(ctx.own_wallets != nullptr);
  const std::uint64_t pool_key = stable_hash64(ctx.pool_name);
  mempool.for_each_entry([&](const node::MempoolEntry& entry) {
    if (!involves_any(entry.tx, *ctx.own_wallets)) return;
    if (theta_ < 1.0) {
      // Per-transaction deterministic coin keyed on (pool, txid): the
      // same transaction gets the same verdict in every block attempt,
      // so a throttled boost looks like genuine indifference rather
      // than flicker an auditor could average away.
      std::uint64_t state = pool_key ^ entry.tx.id().short_id();
      const double u = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
      if (u >= theta_) return;
    }
    options.fee_deltas[entry.tx.id()] += kPriorityBoost;
  });
}

void FairQueuePolicy::apply(node::TemplateOptions& options,
                            const node::Mempool&, const PolicyContext&) const {
  options.fifo = true;
}

}  // namespace cn::sim
