#include "core/darkfee.hpp"

#include <algorithm>

#include "core/sppe.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace cn::core {

std::vector<DarkFeeBucket> darkfee_buckets(const btc::Chain& chain,
                                           const PoolAttribution& attribution,
                                           const std::string& pool,
                                           const IsAcceleratedFn& is_accelerated,
                                           const std::vector<double>& thresholds) {
  std::vector<DarkFeeBucket> buckets;
  buckets.reserve(thresholds.size());
  for (double t : thresholds) buckets.push_back(DarkFeeBucket{t, 0, 0});

  for (const btc::Block& block : chain.blocks()) {
    const auto owner = attribution.pool_of(block.height());
    if (!owner.has_value() || *owner != pool) continue;
    const std::vector<double> sppe = block_sppe(block);
    for (std::size_t pos = 0; pos < sppe.size(); ++pos) {
      for (DarkFeeBucket& bucket : buckets) {
        if (sppe[pos] >= bucket.sppe_threshold) {
          ++bucket.tx_count;
          if (is_accelerated(block.txs()[pos].id())) ++bucket.accelerated;
        }
      }
    }
  }
  return buckets;
}

std::uint64_t accelerated_in_random_sample(const btc::Chain& chain,
                                           const PoolAttribution& attribution,
                                           const std::string& pool,
                                           const IsAcceleratedFn& is_accelerated,
                                           std::size_t sample_size,
                                           std::uint64_t seed) {
  // Collect the pool's committed txids once, then sample without
  // replacement.
  std::vector<btc::Txid> ids;
  for (const btc::Block& block : chain.blocks()) {
    const auto owner = attribution.pool_of(block.height());
    if (!owner.has_value() || *owner != pool) continue;
    for (const btc::Transaction& tx : block.txs()) ids.push_back(tx.id());
  }
  if (ids.empty()) return 0;

  Rng rng(seed);
  rng.shuffle(ids);
  const std::size_t n = std::min(sample_size, ids.size());
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (is_accelerated(ids[i])) ++hits;
  }
  return hits;
}

std::vector<TxIdx> detect_accelerated(const AuditDataset& dataset, PoolId pool,
                                      double threshold) {
  std::vector<TxIdx> out;
  const std::span<const double> sppe = dataset.sppe();
  for (const std::uint32_t b : dataset.blocks_of_pool(pool)) {
    for (TxIdx t = dataset.tx_begin(b); t < dataset.tx_end(b); ++t) {
      if (sppe[t] >= threshold) out.push_back(t);  // NaN never qualifies
    }
  }
  return out;
}

std::uint64_t count_accelerated(const AuditDataset& dataset, PoolId pool,
                                double threshold) {
  std::uint64_t n = 0;
  const std::span<const double> sppe = dataset.sppe();
  for (const std::uint32_t b : dataset.blocks_of_pool(pool)) {
    for (TxIdx t = dataset.tx_begin(b); t < dataset.tx_end(b); ++t) {
      if (sppe[t] >= threshold) ++n;
    }
  }
  return n;
}

}  // namespace cn::core
