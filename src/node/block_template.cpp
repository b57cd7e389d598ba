#include "node/block_template.hpp"

#include <algorithm>
#include <functional>
#include <queue>

#include "obs/registry.hpp"
#include "util/assert.hpp"

namespace cn::node {

namespace {

using Handle = MempoolHandle;

/// A heap entry: 32 bytes, so seeding the heap with every queued entry
/// at each build moves half the bytes a copy of the txid would.
struct PackageScore {
  btc::FeeRate rate{};       ///< effective package fee-rate
  SimTime arrival = 0;       ///< representative's mempool arrival (FIFO mode)
  Handle handle = kNoMempoolHandle;  ///< the package's representative (descendant)
};
static_assert(sizeof(PackageScore) == 32);

/// Max-heap ordering with a deterministic txid tie-break: a strict total
/// order over distinct representatives, so the pop sequence does not
/// depend on how the heap was built. In FIFO mode the earliest arrival
/// tops the heap; the rate is still carried for the floor check but does
/// not order. The txid is read from the pool only on a tie.
class ScoreOrder {
 public:
  ScoreOrder(const Mempool& mempool, bool fifo) : mempool_(&mempool), fifo_(fifo) {}

  bool operator()(const PackageScore& a, const PackageScore& b) const noexcept {
    if (fifo_) {
      if (a.arrival != b.arrival) return a.arrival > b.arrival;
    } else if (const auto c = a.rate <=> b.rate; c != 0) {
      return c < 0;
    }
    // Lower txid wins ties.
    return mempool_->entry(a.handle).tx.id() > mempool_->entry(b.handle).tx.id();
  }

 private:
  const Mempool* mempool_;
  bool fifo_;
};

/// Builder telemetry (DESIGN.md §10): tallied in plain integers during a
/// build and added to the registry once per build, never per pop.
struct TemplateMetrics {
  obs::Counter builds{"node.template.builds"};
  obs::Counter seeded{"node.template.seeded"};
  obs::Counter heap_pops{"node.template.heap_pops"};
};

TemplateMetrics& template_metrics() {
  static TemplateMetrics* m = new TemplateMetrics();  // interned once per process
  return *m;
}

/// Where an entry stands in the current build.
enum class Mark : std::uint8_t { kQueued, kSelected, kDropped, kExcluded };

class TemplateBuilder {
 public:
  TemplateBuilder(const Mempool& mempool, const TemplateOptions& options)
      : mempool_(mempool),
        options_(options),
        mark_(mempool.slot_count(), Mark::kQueued),
        heap_(ScoreOrder(mempool, options.fifo)) {
    // Resolve the txid-keyed options to handles once per build; ids that
    // are not queued cannot affect this template.
    for (const btc::Txid& id : options_.exclude) {
      const Handle h = mempool_.handle_of(id);
      if (h != kNoMempoolHandle) mark_[h] = Mark::kExcluded;
    }
    if (!options_.fee_deltas.empty()) {
      fee_delta_.assign(mempool_.slot_count(), 0);
      for (const auto& [id, delta] : options_.fee_deltas) {
        const Handle h = mempool_.handle_of(id);
        if (h != kNoMempoolHandle) fee_delta_[h] = delta.value;
      }
    }
  }

  BlockTemplate build() {
    seed_heap();
    BlockTemplate out;
    std::uint64_t pops = 0;
    while (!heap_.empty() && !nothing_fits(options_.max_vsize - out.total_vsize)) {
      const PackageScore top = heap_.top();
      heap_.pop();
      ++pops;
      if (mark_[top.handle] != Mark::kQueued) continue;

      // Recompute: ancestors may have been selected since this entry was
      // pushed, which only *raises* the package rate (lazy invalidation).
      const btc::FeeRate current = package_rate(top.handle);
      if (current != top.rate) {
        heap_.push(PackageScore{current, top.arrival, top.handle});
        continue;
      }
      if (package_.empty()) {
        // Package depends on a censored ancestor: permanently unmineable.
        mark_[top.handle] = Mark::kDropped;
        continue;
      }

      if (options_.min_rate.valid() && current < options_.min_rate) {
        // Heap is rate-ordered; everything below the floor from here on.
        // (Entries may be stale-low, so drop just this one and continue.)
        mark_[top.handle] = Mark::kDropped;
        continue;
      }

      std::uint64_t package_vsize = 0;
      for (const Handle h : package_) package_vsize += mempool_.entry(h).tx.vsize();
      if (out.total_vsize + package_vsize > options_.max_vsize) {
        mark_[top.handle] = Mark::kDropped;  // space only shrinks; never fits later
        continue;
      }

      append_package(out);
    }
    TemplateMetrics& m = template_metrics();
    m.builds.add();
    m.seeded.add(seeded_);
    m.heap_pops.add(pops);
    return out;
  }

 private:
  void seed_heap() {
    // Bulk-build the heap in O(n): the pop order of a binary heap under a
    // strict total order (ScoreOrder's txid tie-break makes it one) does
    // not depend on how the heap was built, so this matches per-push
    // seeding.
    std::vector<PackageScore> seed;
    seed.reserve(mempool_.size());
    smallest_.reserve(mempool_.size());
    mempool_.for_each_handle([&](Handle h, const MempoolEntry& entry) {
      if (mark_[h] == Mark::kExcluded) return;
      seed.push_back(PackageScore{package_rate(h), entry.arrival, h});
      smallest_.push_back((std::uint64_t{entry.tx.vsize()} << 32) | h);
    });
    seeded_ = seed.size();
    heap_ = Heap(ScoreOrder(mempool_, options_.fifo), std::move(seed));
    std::make_heap(smallest_.begin(), smallest_.end(), std::greater<>{});
  }

  /// True once the space left is below the smallest vsize among entries
  /// still queued (neither selected, dropped nor excluded). A package is
  /// never smaller than its own transaction, so every later pop would be
  /// skipped or dropped: stopping here leaves the template unchanged.
  bool nothing_fits(std::uint64_t space_left) {
    while (!smallest_.empty()) {
      const std::uint64_t top = smallest_.front();
      if (mark_[static_cast<Handle>(top)] == Mark::kQueued) {
        return space_left < (top >> 32);
      }
      std::pop_heap(smallest_.begin(), smallest_.end(), std::greater<>{});
      smallest_.pop_back();
    }
    return true;
  }

  btc::Satoshi effective_fee(Handle h, const MempoolEntry& entry) const {
    // Fast path: no acceleration deltas and no age boost configured means
    // the effective fee is the real fee (fees are non-negative).
    if (fee_delta_.empty() && options_.age_weight_per_hour <= 0.0) {
      return entry.tx.fee();
    }
    btc::Satoshi fee = entry.tx.fee();
    if (!fee_delta_.empty()) fee += btc::Satoshi{fee_delta_[h]};
    if (options_.age_weight_per_hour > 0.0 && options_.now > entry.arrival) {
      const double hours =
          static_cast<double>(options_.now - entry.arrival) / 3600.0;
      const double boosted = static_cast<double>(fee.value) *
                             (1.0 + options_.age_weight_per_hour * hours);
      fee = btc::Satoshi{static_cast<std::int64_t>(boosted)};
    }
    if (fee.value < 0) fee = btc::Satoshi{0};
    return fee;
  }

  /// Effective fee-rate of the package rooted at @p h; fills package_
  /// with the entry and its unselected ancestors. Returns an invalid rate
  /// (and an empty package) if the package contains an excluded ancestor.
  btc::FeeRate package_rate(Handle h) {
    package_.clear();
    package_.push_back(h);
    const MempoolEntry& self = mempool_.entry(h);
    if (self.in_pool_parents == 0) {
      // No counted ancestry (the overwhelmingly common case): the package
      // is the transaction alone.
      return btc::FeeRate(effective_fee(h, self), self.tx.vsize());
    }
    // Mempool::ancestors_of's walk — depth-first over inputs in input
    // order, through selected ancestors too — with visit stamps in place
    // of a hash set.
    if (visit_.empty()) visit_.assign(mempool_.slot_count(), 0);
    ++stamp_;
    frontier_.assign(1, h);
    while (!frontier_.empty()) {
      const Handle cur = frontier_.back();
      frontier_.pop_back();
      for (const Handle parent : mempool_.parents_of(cur)) {
        if (parent == kNoMempoolHandle || visit_[parent] == stamp_) continue;
        visit_[parent] = stamp_;
        frontier_.push_back(parent);
        if (mark_[parent] == Mark::kSelected) continue;
        if (mark_[parent] == Mark::kExcluded) {
          package_.clear();
          return btc::FeeRate{};  // unmineable: would pull in a censored tx
        }
        package_.push_back(parent);
      }
    }
    btc::Satoshi fee{};
    std::uint64_t vsize = 0;
    for (const Handle p : package_) {
      const MempoolEntry& e = mempool_.entry(p);
      fee += effective_fee(p, e);
      vsize += e.tx.vsize();
    }
    return btc::FeeRate(fee, vsize);
  }

  /// Appends package_ with parents before children.
  void append_package(BlockTemplate& out) {
    // Topological order: repeatedly emit entries whose in-package parents
    // are all already emitted. Packages are tiny (chain depth <= a few),
    // so the quadratic scan is immaterial.
    std::vector<Handle>& pending = package_;
    // Deterministic starting order.
    std::sort(pending.begin(), pending.end(), [this](Handle a, Handle b) {
      return mempool_.entry(a).tx.id() < mempool_.entry(b).tx.id();
    });
    while (!pending.empty()) {
      bool progressed = false;
      for (auto it = pending.begin(); it != pending.end();) {
        const Handle h = *it;
        bool ready = true;
        for (const Handle parent : mempool_.parents_of(h)) {
          if (parent != kNoMempoolHandle && parent != h &&
              std::find(pending.begin(), pending.end(), parent) != pending.end()) {
            ready = false;
            break;
          }
        }
        if (ready) {
          const btc::Transaction& tx = mempool_.entry(h).tx;
          mark_[h] = Mark::kSelected;
          out.total_vsize += tx.vsize();
          out.total_fees += tx.fee();  // real fee, not effective
          out.txs.push_back(tx);
          it = pending.erase(it);
          progressed = true;
        } else {
          ++it;
        }
      }
      CN_ASSERT(progressed);  // a cycle would be a corrupt mempool
    }
  }

  const Mempool& mempool_;
  const TemplateOptions& options_;
  // Per-handle state, owned by the builder: the builder only reads the
  // Mempool, so the pool holds no scratch.
  std::vector<Mark> mark_;
  std::vector<std::int64_t> fee_delta_;  ///< empty without fee_deltas
  std::vector<std::uint32_t> visit_;     ///< ancestor-walk stamps, sized lazily
  std::uint32_t stamp_ = 0;
  std::vector<Handle> frontier_;  ///< ancestor-walk stack
  std::vector<Handle> package_;   ///< the package package_rate() last scored
  using Heap = std::priority_queue<PackageScore, std::vector<PackageScore>, ScoreOrder>;
  Heap heap_;
  /// Lazy min-heap of (vsize << 32 | handle) over the seeded entries.
  std::vector<std::uint64_t> smallest_;
  std::uint64_t seeded_ = 0;
};

}  // namespace

BlockTemplate build_template(const Mempool& mempool, const TemplateOptions& options) {
  return TemplateBuilder(mempool, options).build();
}

}  // namespace cn::node
