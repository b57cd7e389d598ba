#include "core/pair_violations.hpp"

#include <algorithm>
#include <iterator>

namespace cn::core {

namespace {

/// Shared preprocessing: CPFP filter, then arrival sort.
std::vector<SeenTx> prepare(std::vector<SeenTx> txs, bool exclude_cpfp) {
  if (exclude_cpfp) {
    txs.erase(std::remove_if(txs.begin(), txs.end(),
                             [](const SeenTx& t) { return t.cpfp || t.cpfp_parent; }),
              txs.end());
  }
  std::sort(txs.begin(), txs.end(), [](const SeenTx& a, const SeenTx& b) {
    return a.first_seen < b.first_seen;
  });
  return txs;
}

/// Point-update / prefix-sum tree over [0, n) ranks.
class Fenwick {
 public:
  explicit Fenwick(std::size_t n) : tree_(n + 1, 0) {}

  void add(std::size_t rank, std::int64_t delta) {
    for (std::size_t i = rank + 1; i < tree_.size(); i += i & (~i + 1)) {
      tree_[i] += delta;
    }
  }

  /// Sum over ranks [0, count).
  std::uint64_t prefix(std::size_t count) const {
    std::int64_t sum = 0;
    for (std::size_t i = std::min(count, tree_.size() - 1); i > 0; i -= i & (~i + 1)) {
      sum += tree_[i];
    }
    return static_cast<std::uint64_t>(sum);
  }

 private:
  std::vector<std::int64_t> tree_;
};

/// One transaction contributes two events: a *query* at its arrival t_j
/// (count the already-visible better-qualified transactions) and a
/// deferred *insert* at t_i + epsilon (become visible to later queries
/// only once the arrival slack has elapsed). Ordering queries before
/// inserts at equal time realizes the strict t_i + eps < t_j window.
struct Event {
  SimTime time = 0;
  bool is_insert = false;
  std::uint32_t fee_rank = 0;    ///< ascending fee-rate rank
  std::uint32_t block_rank = 0;  ///< ascending block-height rank
  std::uint32_t tx_index = 0;    ///< index into the arrival-sorted txs
};

bool event_order(const Event& a, const Event& b) {
  if (a.time != b.time) return a.time < b.time;
  return a.is_insert < b.is_insert;  // queries first at equal time
}

/// CDQ divide-and-conquer: counts, for every query event, the insert
/// events earlier in the sequence with strictly higher fee rank AND
/// strictly higher block rank, accumulating into viol[tx_index]. The
/// sequence order already encodes the epsilon time window, so the cross
/// step is a plain 2-D dominance count (fee-descending sweep over a
/// Fenwick tree keyed by block rank).
void cdq_violations(const std::vector<Event>& events, std::size_t lo,
                    std::size_t hi, Fenwick& block_bit,
                    std::vector<std::uint64_t>& viol) {
  if (hi - lo <= 1) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  cdq_violations(events, lo, mid, block_bit, viol);
  cdq_violations(events, mid, hi, block_bit, viol);

  std::vector<const Event*> inserts;
  std::vector<const Event*> queries;
  for (std::size_t i = lo; i < mid; ++i) {
    if (events[i].is_insert) inserts.push_back(&events[i]);
  }
  for (std::size_t i = mid; i < hi; ++i) {
    if (!events[i].is_insert) queries.push_back(&events[i]);
  }
  if (inserts.empty() || queries.empty()) return;

  const auto by_fee_desc = [](const Event* a, const Event* b) {
    return a->fee_rank > b->fee_rank;
  };
  std::sort(inserts.begin(), inserts.end(), by_fee_desc);
  std::sort(queries.begin(), queries.end(), by_fee_desc);

  std::size_t p = 0;
  std::uint64_t visible = 0;
  for (const Event* q : queries) {
    while (p < inserts.size() && inserts[p]->fee_rank > q->fee_rank) {
      block_bit.add(inserts[p]->block_rank, +1);
      ++visible;
      ++p;
    }
    // Visible transactions out-fee q; those also committed in a LATER
    // block than q's jumped the queue illegitimately.
    viol[q->tx_index] += visible - block_bit.prefix(q->block_rank + 1);
  }
  for (std::size_t k = 0; k < p; ++k) block_bit.add(inserts[k]->block_rank, -1);
}

struct SweepCounts {
  std::uint64_t predicted = 0;
  std::vector<std::uint64_t> violations_per_tx;  ///< indexed like txs
};

/// Exact counts over arrival-sorted @p txs.
SweepCounts exact_counts(const std::vector<SeenTx>& txs, SimTime epsilon) {
  SweepCounts out;
  out.violations_per_tx.assign(txs.size(), 0);
  if (txs.size() < 2) return out;

  std::vector<double> fees;
  std::vector<std::uint64_t> heights;
  fees.reserve(txs.size());
  heights.reserve(txs.size());
  for (const SeenTx& t : txs) {
    fees.push_back(t.fee_rate);
    heights.push_back(t.block_height);
  }
  std::sort(fees.begin(), fees.end());
  fees.erase(std::unique(fees.begin(), fees.end()), fees.end());
  std::sort(heights.begin(), heights.end());
  heights.erase(std::unique(heights.begin(), heights.end()), heights.end());

  std::vector<Event> events;
  events.reserve(2 * txs.size());
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const auto fee_rank = static_cast<std::uint32_t>(
        std::lower_bound(fees.begin(), fees.end(), txs[i].fee_rate) - fees.begin());
    const auto block_rank = static_cast<std::uint32_t>(
        std::lower_bound(heights.begin(), heights.end(), txs[i].block_height) -
        heights.begin());
    const auto index = static_cast<std::uint32_t>(i);
    events.push_back(Event{txs[i].first_seen, false, fee_rank, block_rank, index});
    events.push_back(
        Event{txs[i].first_seen + epsilon, true, fee_rank, block_rank, index});
  }
  std::sort(events.begin(), events.end(), event_order);

  // Pass 1 — predicted pairs: Fenwick over fee ranks, single time sweep.
  Fenwick fee_bit(fees.size());
  std::uint64_t visible = 0;
  for (const Event& e : events) {
    if (e.is_insert) {
      fee_bit.add(e.fee_rank, +1);
      ++visible;
    } else {
      out.predicted += visible - fee_bit.prefix(e.fee_rank + 1);
    }
  }

  // Pass 2 — violations: add the block dimension via CDQ.
  Fenwick block_bit(heights.size());
  cdq_violations(events, 0, events.size(), block_bit, out.violations_per_tx);
  return out;
}

}  // namespace

PairViolationStats count_pair_violations(std::vector<SeenTx> txs,
                                         SimTime epsilon,
                                         bool exclude_cpfp,
                                         PairAlgorithm algorithm) {
  txs = prepare(std::move(txs), exclude_cpfp);
  if (epsilon < 0) epsilon = 0;

  PairViolationStats out;
  if (algorithm == PairAlgorithm::kBruteForce) {
    for (std::size_t i = 0; i < txs.size(); ++i) {
      for (std::size_t j = i + 1; j < txs.size(); ++j) {
        // txs sorted by arrival: i earlier than j.
        if (txs[i].first_seen + epsilon >= txs[j].first_seen) continue;
        if (txs[i].fee_rate <= txs[j].fee_rate) continue;
        ++out.predicted_pairs;
        if (txs[i].block_height > txs[j].block_height) ++out.violations;
      }
    }
    return out;
  }

  const SweepCounts counts = exact_counts(txs, epsilon);
  out.predicted_pairs = counts.predicted;
  for (const std::uint64_t v : counts.violations_per_tx) out.violations += v;
  return out;
}

std::unordered_map<std::uint64_t, std::uint64_t> violations_by_block(
    std::vector<SeenTx> txs, SimTime epsilon, bool exclude_cpfp,
    PairAlgorithm algorithm) {
  txs = prepare(std::move(txs), exclude_cpfp);
  if (epsilon < 0) epsilon = 0;

  std::unordered_map<std::uint64_t, std::uint64_t> out;
  if (algorithm == PairAlgorithm::kBruteForce) {
    for (std::size_t i = 0; i < txs.size(); ++i) {
      for (std::size_t j = i + 1; j < txs.size(); ++j) {
        if (txs[i].first_seen + epsilon >= txs[j].first_seen) continue;
        if (txs[i].fee_rate <= txs[j].fee_rate) continue;
        if (txs[i].block_height > txs[j].block_height) {
          ++out[txs[j].block_height];
        }
      }
    }
    return out;
  }

  const SweepCounts counts = exact_counts(txs, epsilon);
  for (std::size_t j = 0; j < txs.size(); ++j) {
    if (counts.violations_per_tx[j] > 0) {
      out[txs[j].block_height] += counts.violations_per_tx[j];
    }
  }
  return out;
}

PairViolationCounter::PairViolationCounter(SimTime epsilon, bool exclude_cpfp)
    : epsilon_(std::max<SimTime>(epsilon, 0)), exclude_cpfp_(exclude_cpfp) {}

bool PairViolationCounter::add(std::span<const SeenTx> batch) {
  std::vector<SeenTx> fresh;
  fresh.reserve(batch.size());
  for (const SeenTx& t : batch) {
    if (exclude_cpfp_ && (t.cpfp || t.cpfp_parent)) continue;
    if (!counted_.empty() && t.block_height <= max_height_) return false;
    fresh.push_back(t);
  }
  if (fresh.empty()) return true;
  const auto by_arrival = [](const auto& a, const auto& b) {
    return a.first_seen < b.first_seen;
  };
  std::sort(fresh.begin(), fresh.end(), by_arrival);
  std::vector<double> fresh_fees;  // ascending, with repeats
  fresh_fees.reserve(fresh.size());
  for (const SeenTx& t : fresh) fresh_fees.push_back(t.fee_rate);
  std::sort(fresh_fees.begin(), fresh_fees.end());

  const SweepCounts inside = exact_counts(fresh, epsilon_);
  stats_.predicted_pairs += inside.predicted;
  for (const std::uint64_t v : inside.violations_per_tx) stats_.violations += v;

  if (!counted_.empty()) {
    // Cross pairs (counted x, fresh y), with b_y > b_x. Those with x
    // first are every pair with f_x > f_y, less the ones where y arrived
    // by t_x + eps.
    std::uint64_t fee_ordered = 0;
    for (const double f : fresh_fees) {
      fee_ordered += static_cast<std::uint64_t>(
          counted_fees_.end() -
          std::upper_bound(counted_fees_.begin(), counted_fees_.end(), f));
    }

    std::vector<double> fees;  // distinct, ascending
    std::unique_copy(fresh_fees.begin(), fresh_fees.end(), std::back_inserter(fees));
    std::vector<std::uint32_t> rank(fresh.size());  // fee rank of fresh[i]
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      rank[i] = static_cast<std::uint32_t>(
          std::lower_bound(fees.begin(), fees.end(), fresh[i].fee_rate) -
          fees.begin());
    }

    // One ascending pass over the counted arrivals. `earlier` holds the
    // fresh txs with t_y + eps < t_x, `within` those with t_y <= t_x +
    // eps; both only grow as t_x does. Both stay empty while t_x + eps
    // is before every fresh arrival, so the pass starts after those x.
    Fenwick earlier(fees.size());
    Fenwick within(fees.size());
    std::size_t e = 0;
    std::size_t w = 0;
    std::uint64_t fresh_first = 0;  // y first with the higher fee: violations
    std::uint64_t too_close = 0;    // f_x > f_y but t_y <= t_x + eps
    const SimTime first_fresh = fresh.front().first_seen;
    for (auto x = std::partition_point(counted_.begin(), counted_.end(),
                                       [&](const Arrival& a) {
                                         return a.first_seen + epsilon_ < first_fresh;
                                       });
         x != counted_.end(); ++x) {
      while (e < fresh.size() && fresh[e].first_seen + epsilon_ < x->first_seen) {
        earlier.add(rank[e++], +1);
      }
      while (w < fresh.size() && fresh[w].first_seen <= x->first_seen + epsilon_) {
        within.add(rank[w++], +1);
      }
      // Fee ranks strictly below x's, and at or below it.
      const auto lower = static_cast<std::size_t>(
          std::lower_bound(fees.begin(), fees.end(), x->fee_rate) - fees.begin());
      const std::size_t upper =
          lower < fees.size() && fees[lower] == x->fee_rate ? lower + 1 : lower;
      fresh_first += e - earlier.prefix(upper);
      too_close += within.prefix(lower);
    }
    stats_.predicted_pairs += fresh_first + fee_ordered - too_close;
    stats_.violations += fresh_first;
  }

  const auto old_end = static_cast<std::ptrdiff_t>(counted_.size());
  for (const SeenTx& t : fresh) {
    counted_.push_back(Arrival{t.first_seen, t.fee_rate});
    max_height_ = std::max(max_height_, t.block_height);
  }
  std::inplace_merge(counted_.begin(), counted_.begin() + old_end, counted_.end(),
                     by_arrival);
  counted_fees_.insert(counted_fees_.end(), fresh_fees.begin(), fresh_fees.end());
  std::inplace_merge(counted_fees_.begin(), counted_fees_.begin() + old_end,
                     counted_fees_.end());
  return true;
}

void PairViolationCounter::clear() {
  stats_ = {};
  max_height_ = 0;
  counted_.clear();
  counted_fees_.clear();
}

}  // namespace cn::core
