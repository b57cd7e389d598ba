#include "core/darkfee.hpp"

#include <algorithm>

#include "util/rng.hpp"

namespace cn::core {

std::vector<DarkFeeBucket> darkfee_buckets(const AuditDataset& dataset, PoolId pool,
                                           const IsAcceleratedFn& is_accelerated,
                                           const std::vector<double>& thresholds) {
  std::vector<DarkFeeBucket> buckets;
  buckets.reserve(thresholds.size());
  for (double t : thresholds) buckets.push_back(DarkFeeBucket{t, 0, 0});

  const std::span<const double> sppe = dataset.sppe();
  const std::span<const btc::Txid> ids = dataset.txids();
  for (const std::uint32_t b : dataset.blocks_of_pool(pool)) {
    for (TxIdx t = dataset.tx_begin(b); t < dataset.tx_end(b); ++t) {
      const auto qualifies = [&](const DarkFeeBucket& bucket) {
        return sppe[t] >= bucket.sppe_threshold;  // NaN never qualifies
      };
      if (std::none_of(buckets.begin(), buckets.end(), qualifies)) continue;
      const bool accelerated = is_accelerated(ids[t]);
      for (DarkFeeBucket& bucket : buckets) {
        if (!qualifies(bucket)) continue;
        ++bucket.tx_count;
        if (accelerated) ++bucket.accelerated;
      }
    }
  }
  return buckets;
}

std::uint64_t accelerated_in_random_sample(const AuditDataset& dataset, PoolId pool,
                                           const IsAcceleratedFn& is_accelerated,
                                           std::size_t sample_size,
                                           std::uint64_t seed) {
  // Collect the pool's committed txids once, in chain order, then sample
  // without replacement.
  std::vector<btc::Txid> ids;
  const std::span<const btc::Txid> txids = dataset.txids();
  for (const std::uint32_t b : dataset.blocks_of_pool(pool)) {
    ids.insert(ids.end(), txids.begin() + dataset.tx_begin(b),
               txids.begin() + dataset.tx_end(b));
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
