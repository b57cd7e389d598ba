#include "obs/registry.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "util/assert.hpp"

namespace cn::obs {

namespace {

std::atomic<bool> g_enabled{true};

}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }
void set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

const std::vector<double>& latency_seconds_buckets() {
  static const std::vector<double> kBuckets = {
      1e-6, 4e-6, 16e-6, 64e-6, 256e-6, 1e-3, 4e-3,
      16e-3, 64e-3, 0.25, 1.0, 4.0, 16.0, 64.0, 128.0};
  return kBuckets;
}

const std::vector<double>& depth_buckets() {
  static const std::vector<double> kBuckets = {0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
  return kBuckets;
}

namespace detail {
namespace {

/// Atomic double add (shard-local, so the CAS loop almost never spins).
void atomic_add(std::atomic<double>& slot, double delta) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
  }
}

/// One thread's slice of every counter/histogram. Chunked so growth
/// never moves existing atomics: a fixed pointer table of lazily
/// allocated chunks, readable lock-free by the scrape thread.
struct Shard {
  static constexpr std::size_t kChunkBits = 8;
  static constexpr std::size_t kChunkSize = 1u << kChunkBits;  // slots/chunk
  static constexpr std::size_t kMaxChunks = 64;                // 16384 slots

  struct Chunk {
    std::atomic<std::uint64_t> u64[kChunkSize]{};
    std::atomic<double> f64[kChunkSize]{};
  };

  std::atomic<Chunk*> chunks[kMaxChunks]{};

  Chunk* chunk_for_slot(std::uint32_t slot) noexcept {
    const std::size_t c = slot >> kChunkBits;
    CN_ASSERT(c < kMaxChunks);
    Chunk* got = chunks[c].load(std::memory_order_acquire);
    if (got != nullptr) return got;
    auto fresh = std::make_unique<Chunk>();
    Chunk* expected = nullptr;
    if (chunks[c].compare_exchange_strong(expected, fresh.get(),
                                          std::memory_order_acq_rel)) {
      return fresh.release();
    }
    return expected;  // another thread won the install race
  }

  std::uint64_t read_u64(std::uint32_t slot) const noexcept {
    const Chunk* c = chunks[slot >> kChunkBits].load(std::memory_order_acquire);
    return c == nullptr
               ? 0
               : c->u64[slot & (kChunkSize - 1)].load(std::memory_order_relaxed);
  }
  double read_f64(std::uint32_t slot) const noexcept {
    const Chunk* c = chunks[slot >> kChunkBits].load(std::memory_order_acquire);
    return c == nullptr
               ? 0.0
               : c->f64[slot & (kChunkSize - 1)].load(std::memory_order_relaxed);
  }
  void zero() noexcept {
    for (auto& slot : chunks) {
      Chunk* c = slot.load(std::memory_order_acquire);
      if (c == nullptr) continue;
      for (auto& v : c->u64) v.store(0, std::memory_order_relaxed);
      for (auto& v : c->f64) v.store(0.0, std::memory_order_relaxed);
    }
  }
};

struct MetricInfo {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  /// First shard slot: counters use 1 u64 slot; histograms use
  /// uppers.size()+1 u64 slots (bucket counts incl. overflow) followed by
  /// 1 u64 (count) and 1 f64 (sum, at the same slot index).
  std::uint32_t slot = 0;
  std::vector<double> uppers;  // histogram only
};

class RegistryImpl {
 public:
  static constexpr std::size_t kMaxMetrics = 4096;

  static RegistryImpl& instance() {
    static RegistryImpl* impl = new RegistryImpl();  // leaked: outlives TLS dtors
    return *impl;
  }

  MetricId intern(std::string_view name, MetricKind kind,
                  const std::vector<double>* uppers) {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_name_.find(std::string(name));
    if (it != by_name_.end()) {
      CN_ASSERT(info(it->second).kind == kind);
      return it->second;
    }
    CN_ASSERT(metric_count_.load(std::memory_order_relaxed) < kMaxMetrics);
    auto info = std::make_unique<MetricInfo>();
    info->name = std::string(name);
    info->kind = kind;
    info->slot = next_slot_;
    if (kind == MetricKind::kHistogram) {
      CN_ASSERT(uppers != nullptr && !uppers->empty());
      CN_ASSERT(std::is_sorted(uppers->begin(), uppers->end()));
      info->uppers = *uppers;
      // buckets (incl. overflow) + count slot (u64) / sum slot (f64).
      next_slot_ += static_cast<std::uint32_t>(uppers->size()) + 2;
    } else {
      next_slot_ += 1;
    }
    const MetricId id =
        static_cast<MetricId>(metric_count_.load(std::memory_order_relaxed));
    by_name_.emplace(info->name, id);
    // Publish pointer first, count last: hot-path readers index only
    // below the published count.
    metrics_[id].store(info.release(), std::memory_order_release);
    metric_count_.store(id + 1, std::memory_order_release);
    return id;
  }

  /// The calling thread's shard, created (or recycled) on first use.
  Shard& local_shard() {
    thread_local ShardLease lease(*this);
    return *lease.shard;
  }

  /// Lock-free: MetricInfo is immutable once published.
  const MetricInfo& info(MetricId id) const noexcept {
    return *metrics_[id].load(std::memory_order_acquire);
  }

  std::vector<MetricValue> snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::size_t n = metric_count_.load(std::memory_order_acquire);
    std::vector<MetricValue> out;
    out.reserve(n);
    for (std::size_t id = 0; id < n; ++id) {
      const MetricInfo& m = info(static_cast<MetricId>(id));
      MetricValue v;
      v.name = m.name;
      v.kind = m.kind;
      switch (m.kind) {
        case MetricKind::kCounter: {
          std::uint64_t total = 0;
          for (const auto& s : shards_) total += s->read_u64(m.slot);
          v.value = static_cast<double>(total);
          break;
        }
        case MetricKind::kGauge:
          v.value = gauges_.count(m.slot) ? gauges_.at(m.slot) : 0.0;
          break;
        case MetricKind::kHistogram: {
          const std::size_t nb = m.uppers.size() + 1;
          v.bucket_uppers = m.uppers;
          v.bucket_counts.assign(nb, 0);
          for (const auto& s : shards_) {
            for (std::size_t b = 0; b < nb; ++b) {
              v.bucket_counts[b] +=
                  s->read_u64(m.slot + static_cast<std::uint32_t>(b));
            }
            const auto tail = m.slot + static_cast<std::uint32_t>(nb);
            v.count += s->read_u64(tail);
            v.sum += s->read_f64(tail);
          }
          break;
        }
      }
      out.push_back(std::move(v));
    }
    std::sort(out.begin(), out.end(),
              [](const MetricValue& a, const MetricValue& b) {
                return a.name < b.name;
              });
    return out;
  }

  void gauge_set(std::uint32_t slot, double value) {
    std::lock_guard<std::mutex> lock(mutex_);
    gauges_[slot] = value;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& s : shards_) s->zero();
    gauges_.clear();
  }

 private:
  /// Ties a shard to a thread's lifetime; on thread exit the shard goes
  /// back to the free list (its counts are cumulative and stay merged).
  struct ShardLease {
    RegistryImpl& reg;
    Shard* shard;
    explicit ShardLease(RegistryImpl& r) : reg(r), shard(r.acquire_shard()) {}
    ~ShardLease() { reg.release_shard(shard); }
  };

  Shard* acquire_shard() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!free_shards_.empty()) {
      Shard* s = free_shards_.back();
      free_shards_.pop_back();
      return s;
    }
    shards_.push_back(std::make_unique<Shard>());
    return shards_.back().get();
  }

  void release_shard(Shard* s) {
    std::lock_guard<std::mutex> lock(mutex_);
    free_shards_.push_back(s);
  }

  mutable std::mutex mutex_;
  std::map<std::string, MetricId> by_name_;
  std::atomic<MetricInfo*> metrics_[kMaxMetrics]{};
  std::atomic<std::size_t> metric_count_{0};
  std::uint32_t next_slot_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;  ///< all ever created
  std::vector<Shard*> free_shards_;             ///< recyclable (thread exited)
  std::map<std::uint32_t, double> gauges_;
};

}  // namespace

MetricId intern_counter(std::string_view name) {
  return RegistryImpl::instance().intern(name, MetricKind::kCounter, nullptr);
}

MetricId intern_gauge(std::string_view name) {
  return RegistryImpl::instance().intern(name, MetricKind::kGauge, nullptr);
}

MetricId intern_histogram(std::string_view name,
                          const std::vector<double>& uppers) {
  return RegistryImpl::instance().intern(name, MetricKind::kHistogram, &uppers);
}

void counter_add(MetricId id, std::uint64_t delta) noexcept {
  RegistryImpl& reg = RegistryImpl::instance();
  const MetricInfo& info = reg.info(id);
  Shard& shard = reg.local_shard();
  shard.chunk_for_slot(info.slot)
      ->u64[info.slot & (Shard::kChunkSize - 1)]
      .fetch_add(delta, std::memory_order_relaxed);
}

void gauge_set(MetricId id, double value) noexcept {
  RegistryImpl& reg = RegistryImpl::instance();
  reg.gauge_set(reg.info(id).slot, value);
}

void histogram_observe(MetricId id, double value) noexcept {
  RegistryImpl& reg = RegistryImpl::instance();
  const MetricInfo& info = reg.info(id);
  Shard& shard = reg.local_shard();
  const auto it =
      std::lower_bound(info.uppers.begin(), info.uppers.end(), value);
  const std::uint32_t bucket =
      info.slot + static_cast<std::uint32_t>(it - info.uppers.begin());
  shard.chunk_for_slot(bucket)
      ->u64[bucket & (Shard::kChunkSize - 1)]
      .fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t tail =
      info.slot + static_cast<std::uint32_t>(info.uppers.size()) + 1;
  Shard::Chunk* tc = shard.chunk_for_slot(tail);
  tc->u64[tail & (Shard::kChunkSize - 1)].fetch_add(1,
                                                    std::memory_order_relaxed);
  atomic_add(tc->f64[tail & (Shard::kChunkSize - 1)], value);
}

}  // namespace detail

std::vector<MetricValue> snapshot() {
  return detail::RegistryImpl::instance().snapshot();
}

void reset_for_test() { detail::RegistryImpl::instance().reset(); }

}  // namespace cn::obs
