#include "core/withholding.hpp"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>

#include "core/congestion.hpp"
#include "stats/binomial.hpp"

namespace cn::core {

namespace {

/// A candidate must have been seen at least this long before the block
/// (the BSV time-difference threshold).
constexpr double kMinLeadSeconds = 10.0;
/// Flag a block missing at least this fraction of its candidates (the
/// BSV missing-mempool-overlap threshold).
constexpr double kMissingThreshold = 0.4;
/// Blocks with fewer candidates than this are not judged (too little
/// mempool context to call an overlap).
constexpr std::size_t kMinCandidates = 20;
/// Candidates must pay at least this quantile of the block's included
/// fee rates — transactions below the block's own floor were plausibly
/// skipped for fee reasons, not withheld.
constexpr double kFeeFloorQuantile = 0.10;
/// Blocks at or above this fraction of the largest block's vsize are not
/// judged: a full block excludes transactions legitimately.
constexpr double kFullBlockFraction = 0.95;

}  // namespace

std::vector<WithholdingReport> withholding_reports(
    const AuditDataset& dataset,
    const util::FlatMap<btc::Txid, SimTime>& first_seen) {
  const std::size_t nblocks = dataset.block_count();
  if (nblocks == 0) return {};
  const std::span<const SimTime> mined_at = dataset.block_mined_at();
  const std::span<const double> fee_rate = dataset.fee_rate();
  const std::span<const std::uint32_t> vsize = dataset.vsize();
  const std::uint64_t first_height = dataset.block_heights()[0];

  std::vector<std::uint64_t> block_vsize(nblocks);
  for (std::size_t b = 0; b < nblocks; ++b) {
    block_vsize[b] = std::accumulate(vsize.begin() + dataset.tx_begin(b),
                                     vsize.begin() + dataset.tx_end(b), std::uint64_t{0});
  }
  const std::uint64_t max_vsize = *std::max_element(block_vsize.begin(), block_vsize.end());

  // Only confirmed transactions the observer saw participate: their fee
  // rates are known from the blocks that confirmed them, and the join
  // keeps the detector a pure function of (dataset, first-seen log).
  std::vector<SeenTx> txs = collect_seen_txs(
      dataset, [&first_seen](const btc::Txid& id) -> std::optional<SimTime> {
        const auto it = first_seen.find(id);
        if (it == first_seen.end()) return std::nullopt;
        return it->second;
      });
  std::sort(txs.begin(), txs.end(), [](const SeenTx& a, const SeenTx& b) {
    if (a.first_seen != b.first_seen) return a.first_seen < b.first_seen;
    if (a.block_height != b.block_height) return a.block_height < b.block_height;
    return a.fee_rate < b.fee_rate;
  });

  // One forward sweep: `active` is the observer's eligible mempool view
  // just before each block — seen at least kMinLeadSeconds ago, not yet
  // confirmed. Blocks arrive in time order, so admission is a moving
  // pointer and eviction a compaction.
  std::vector<SeenTx> active;
  std::size_t next = 0;
  std::vector<char> judged(nblocks, 0);
  std::vector<char> flagged(nblocks, 0);
  std::vector<double> rates;  // scratch: the block's included fee rates
  for (std::size_t b = 0; b < nblocks; ++b) {
    const SimTime t = mined_at[b];
    const std::uint64_t height = first_height + b;
    while (next < txs.size() &&
           static_cast<double>(t - txs[next].first_seen) >= kMinLeadSeconds) {
      active.push_back(txs[next++]);
    }
    std::erase_if(active,
                  [height](const SeenTx& p) { return p.block_height < height; });

    // Empty (SPV) blocks carry no mempool signal; full blocks exclude
    // transactions legitimately. Neither is judged.
    if (dataset.tx_begin(b) == dataset.tx_end(b)) continue;
    if (max_vsize > 0 &&
        static_cast<double>(block_vsize[b]) >=
            kFullBlockFraction * static_cast<double>(max_vsize)) {
      continue;
    }

    rates.assign(fee_rate.begin() + dataset.tx_begin(b),
                 fee_rate.begin() + dataset.tx_end(b));
    const std::size_t floor_idx = std::min(
        rates.size() - 1, static_cast<std::size_t>(
                              kFeeFloorQuantile * static_cast<double>(rates.size())));
    std::nth_element(rates.begin(), rates.begin() + floor_idx, rates.end());
    const double floor = rates[floor_idx];

    std::uint64_t included = 0;
    std::uint64_t missing = 0;
    for (const SeenTx& p : active) {
      if (p.fee_rate < floor) continue;
      if (p.block_height == height) {
        ++included;
      } else {
        ++missing;
      }
    }
    const std::uint64_t n = included + missing;
    if (n < kMinCandidates) continue;
    judged[b] = 1;
    if (static_cast<double>(missing) >= kMissingThreshold * static_cast<double>(n)) {
      flagged[b] = 1;
    }
  }

  // Per-pool aggregation against the network base rate.
  std::uint64_t judged_total = 0;
  std::uint64_t flagged_total = 0;
  std::vector<std::uint64_t> pool_judged(dataset.pool_count(), 0);
  std::vector<std::uint64_t> pool_flagged(dataset.pool_count(), 0);
  const std::span<const PoolId> owners = dataset.block_pool();
  for (std::size_t b = 0; b < nblocks; ++b) {
    if (!judged[b]) continue;
    ++judged_total;
    flagged_total += flagged[b];
    if (owners[b] != kNoPoolId) {
      ++pool_judged[owners[b]];
      pool_flagged[owners[b]] += flagged[b];
    }
  }
  const double base_rate =
      judged_total > 0
          ? static_cast<double>(flagged_total) / static_cast<double>(judged_total)
          : 0.0;

  std::vector<WithholdingReport> reports;
  for (const PoolId pool : dataset.pools_by_blocks()) {
    if (pool_judged[pool] == 0) continue;
    WithholdingReport r;
    r.pool = dataset.pool_name(pool);
    r.blocks = pool_judged[pool];
    r.flagged = pool_flagged[pool];
    r.flagged_rate =
        static_cast<double>(r.flagged) / static_cast<double>(r.blocks);
    r.base_rate = base_rate;
    r.p_value = stats::binomial_sf(r.flagged, r.blocks, base_rate);
    reports.push_back(std::move(r));
  }
  std::sort(reports.begin(), reports.end(),
            [](const WithholdingReport& a, const WithholdingReport& b) {
              if (a.p_value != b.p_value) return a.p_value < b.p_value;
              if (a.flagged_rate != b.flagged_rate)
                return a.flagged_rate > b.flagged_rate;
              return a.pool < b.pool;
            });
  return reports;
}

}  // namespace cn::core
