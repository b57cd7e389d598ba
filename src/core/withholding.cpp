#include "core/withholding.hpp"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "stats/binomial.hpp"

namespace cn::core {

namespace {

/// A transaction the observer saw, joined with where the chain finally
/// confirmed it. Only confirmed transactions participate: their fee
/// rates are known from the chain, and the join keeps the detector a
/// pure function of (chain, first-seen log).
struct SeenTx {
  SimTime seen = 0;
  std::size_t confirm_idx = 0;  ///< index into chain.blocks()
  double rate = 0.0;            ///< sat/vB
};

}  // namespace

std::vector<WithholdingReport> withholding_reports(
    const btc::Chain& chain, const PoolAttribution& attribution,
    const util::FlatMap<btc::Txid, SimTime>& first_seen,
    const WithholdingOptions& options) {
  const std::span<const btc::Block> blocks = chain.blocks();

  std::vector<SeenTx> txs;
  std::uint64_t max_vsize = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    max_vsize = std::max(max_vsize, blocks[i].total_vsize());
    for (const btc::Transaction& tx : blocks[i].txs()) {
      const auto it = first_seen.find(tx.id());
      if (it == first_seen.end()) continue;
      txs.push_back(SeenTx{it->second, i, tx.fee_rate().sat_per_vbyte()});
    }
  }
  std::sort(txs.begin(), txs.end(), [](const SeenTx& a, const SeenTx& b) {
    if (a.seen != b.seen) return a.seen < b.seen;
    if (a.confirm_idx != b.confirm_idx) return a.confirm_idx < b.confirm_idx;
    return a.rate < b.rate;
  });

  // One forward sweep: `active` is the observer's eligible mempool view
  // just before each block — seen at least min_lead_s ago, not yet
  // confirmed. Blocks arrive in time order, so admission is a moving
  // pointer and eviction a compaction.
  std::vector<SeenTx> active;
  std::size_t next = 0;
  std::vector<char> judged(blocks.size(), 0);
  std::vector<char> flagged(blocks.size(), 0);
  std::vector<double> rates;  // scratch: the block's included fee rates
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const btc::Block& block = blocks[i];
    const SimTime t = block.mined_at();
    while (next < txs.size() &&
           static_cast<double>(t - txs[next].seen) >= options.min_lead_s) {
      active.push_back(txs[next++]);
    }
    std::erase_if(active,
                  [i](const SeenTx& p) { return p.confirm_idx < i; });

    // Empty (SPV) blocks carry no mempool signal; full blocks exclude
    // transactions legitimately. Neither is judged.
    if (block.is_empty()) continue;
    if (max_vsize > 0 &&
        static_cast<double>(block.total_vsize()) >=
            options.full_block_fraction * static_cast<double>(max_vsize)) {
      continue;
    }

    rates.clear();
    for (const btc::Transaction& tx : block.txs()) {
      rates.push_back(tx.fee_rate().sat_per_vbyte());
    }
    const std::size_t floor_idx = std::min(
        rates.size() - 1,
        static_cast<std::size_t>(options.fee_floor_quantile *
                                 static_cast<double>(rates.size())));
    std::nth_element(rates.begin(), rates.begin() + floor_idx, rates.end());
    const double floor = rates[floor_idx];

    std::uint64_t included = 0;
    std::uint64_t missing = 0;
    for (const SeenTx& p : active) {
      if (p.rate < floor) continue;
      if (p.confirm_idx == i) {
        ++included;
      } else {
        ++missing;
      }
    }
    const std::uint64_t n = included + missing;
    if (n < options.min_candidates) continue;
    judged[i] = 1;
    if (static_cast<double>(missing) >=
        options.missing_threshold * static_cast<double>(n)) {
      flagged[i] = 1;
    }
  }

  // Per-pool aggregation against the network base rate.
  std::uint64_t judged_total = 0;
  std::uint64_t flagged_total = 0;
  std::unordered_map<std::string, std::pair<std::uint64_t, std::uint64_t>> acc;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    if (!judged[i]) continue;
    ++judged_total;
    flagged_total += flagged[i];
    if (const auto owner = attribution.pool_of(blocks[i].height())) {
      auto& [total, hits] = acc[*owner];
      ++total;
      hits += flagged[i];
    }
  }
  const double base_rate =
      judged_total > 0
          ? static_cast<double>(flagged_total) / static_cast<double>(judged_total)
          : 0.0;

  std::vector<WithholdingReport> reports;
  for (const std::string& pool : attribution.pools_by_blocks()) {
    const auto it = acc.find(pool);
    if (it == acc.end()) continue;
    WithholdingReport r;
    r.pool = pool;
    r.blocks = it->second.first;
    r.flagged = it->second.second;
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
