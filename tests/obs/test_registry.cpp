// cn::obs registry: counters/gauges/histograms, the shard-merge scrape,
// and the runtime switch. The registry is process-global and cumulative,
// so every test starts from reset_for_test() and addresses metrics by
// name rather than assuming it owns the whole snapshot.
#include "obs/registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace cn::obs {
namespace {

const MetricValue* find(const std::vector<MetricValue>& all,
                        const std::string& name) {
  for (const MetricValue& m : all) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

class ObsRegistry : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_for_test();
  }
  void TearDown() override { set_enabled(true); }
};

TEST_F(ObsRegistry, CounterAccumulatesAcrossThreads) {
  const Counter c("test.registry.cross_thread");
  constexpr int kThreads = 8;
  constexpr int kAdds = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAdds; ++i) c.add();
    });
  }
  for (auto& t : threads) t.join();
  c.add(5);

  const auto all = snapshot();
  const auto* m = find(all, "test.registry.cross_thread");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kCounter);
  // Shards of exited threads are recycled, not dropped: the total must
  // include every worker's contribution exactly.
  EXPECT_DOUBLE_EQ(m->value, static_cast<double>(kThreads * kAdds + 5));
}

TEST_F(ObsRegistry, SameNameSharesOneMetric) {
  const Counter a("test.registry.shared");
  const Counter b("test.registry.shared");
  a.add(3);
  b.add(4);
  const auto all = snapshot();
  const auto* m = find(all, "test.registry.shared");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 7.0);
}

TEST_F(ObsRegistry, GaugeKeepsLastWrite) {
  const Gauge g("test.registry.gauge");
  g.set(1.5);
  g.set(-2.25);
  const auto all = snapshot();
  const auto* m = find(all, "test.registry.gauge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(m->value, -2.25);
}

TEST_F(ObsRegistry, HistogramBucketsAndMoments) {
  const Histogram h("test.registry.hist", {1.0, 2.0, 4.0});
  for (const double v : {0.5, 1.5, 3.0, 100.0}) h.observe(v);

  const auto all = snapshot();
  const auto* m = find(all, "test.registry.hist");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->kind, MetricKind::kHistogram);
  ASSERT_EQ(m->bucket_uppers, (std::vector<double>{1.0, 2.0, 4.0}));
  // One value per bucket, plus one in the implicit +inf overflow bucket.
  ASSERT_EQ(m->bucket_counts, (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(m->count, 4u);
  EXPECT_DOUBLE_EQ(m->sum, 105.0);
}

TEST_F(ObsRegistry, HistogramBoundaryGoesToLowerBucket) {
  const Histogram h("test.registry.hist_edge", {1.0, 2.0});
  h.observe(1.0);  // on the upper bound: belongs to the <=1.0 bucket
  h.observe(2.0);
  const auto all = snapshot();
  const auto* m = find(all, "test.registry.hist_edge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->bucket_counts, (std::vector<std::uint64_t>{1, 1, 0}));
}

TEST_F(ObsRegistry, RuntimeSwitchDropsRecordsButKeepsHandles) {
  const Counter c("test.registry.switched");
  c.add(2);
  set_enabled(false);
  c.add(1000);
  EXPECT_FALSE(enabled());
  set_enabled(true);
  c.add(3);
  const auto all = snapshot();
  const auto* m = find(all, "test.registry.switched");
  ASSERT_NE(m, nullptr);
  EXPECT_DOUBLE_EQ(m->value, 5.0);
}

TEST_F(ObsRegistry, SnapshotIsSortedByName) {
  const Counter z("test.registry.zzz");
  const Counter a("test.registry.aaa");
  z.add();
  a.add();
  const auto all = snapshot();
  ASSERT_GE(all.size(), 2u);
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].name, all[i].name) << "snapshot not sorted";
  }
}

TEST_F(ObsRegistry, ResetZeroesEverything) {
  const Counter c("test.registry.reset_c");
  const Gauge g("test.registry.reset_g");
  const Histogram h("test.registry.reset_h", depth_buckets());
  c.add(9);
  g.set(7.0);
  h.observe(3.0);
  reset_for_test();
  const auto all = snapshot();
  const auto* mc = find(all, "test.registry.reset_c");
  const auto* mg = find(all, "test.registry.reset_g");
  const auto* mh = find(all, "test.registry.reset_h");
  ASSERT_NE(mc, nullptr);
  ASSERT_NE(mg, nullptr);
  ASSERT_NE(mh, nullptr);
  EXPECT_DOUBLE_EQ(mc->value, 0.0);
  EXPECT_DOUBLE_EQ(mg->value, 0.0);
  EXPECT_EQ(mh->count, 0u);
  EXPECT_DOUBLE_EQ(mh->sum, 0.0);
}

TEST_F(ObsRegistry, StockBucketLayouts) {
  const auto& latency = latency_seconds_buckets();
  const auto& depth = depth_buckets();
  ASSERT_GE(latency.size(), 2u);
  ASSERT_GE(depth.size(), 2u);
  for (std::size_t i = 1; i < latency.size(); ++i) {
    EXPECT_LT(latency[i - 1], latency[i]);
  }
  for (std::size_t i = 1; i < depth.size(); ++i) {
    EXPECT_LT(depth[i - 1], depth[i]);
  }
}

}  // namespace
}  // namespace cn::obs
