// cn::obs stage tracing: RAII spans, parent linkage via the thread-local
// open-span stack, and the scrape-and-clear timeline.
#include "obs/trace.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "obs/registry.hpp"

namespace cn::obs {
namespace {

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    timeline_clear();
  }
  void TearDown() override { set_enabled(true); }
};

TEST_F(ObsTrace, SpanRecordsOnDestruction) {
  {
    const Span span("test.trace.one");
    EXPECT_TRUE(timeline_events().empty()) << "span recorded before it ended";
  }
  const auto events = timeline_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "test.trace.one");
  EXPECT_NE(events[0].id, 0u);
  EXPECT_EQ(events[0].parent, 0u);
}

TEST_F(ObsTrace, NestedSpansLinkToParent) {
  {
    const Span outer("test.trace.outer");
    {
      const Span inner("test.trace.inner");
    }
    {
      const Span sibling("test.trace.sibling");
    }
  }
  // Completion order: inner, sibling, outer.
  const auto events = timeline_events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "test.trace.inner");
  EXPECT_EQ(events[1].name, "test.trace.sibling");
  EXPECT_EQ(events[2].name, "test.trace.outer");
  EXPECT_EQ(events[0].parent, events[2].id);
  EXPECT_EQ(events[1].parent, events[2].id);
  EXPECT_EQ(events[2].parent, 0u);
  EXPECT_NE(events[0].id, events[1].id);
  // All on this thread, nested inside the outer window.
  EXPECT_EQ(events[0].thread, events[2].thread);
  EXPECT_GE(events[0].start_ns, events[2].start_ns);
  EXPECT_LE(events[0].start_ns + events[0].dur_ns,
            events[2].start_ns + events[2].dur_ns);
}

TEST_F(ObsTrace, ThreadsGetDistinctIndices) {
  {
    const Span here("test.trace.main");
    std::thread([] { const Span there("test.trace.worker"); }).join();
  }
  const auto events = timeline_events();
  ASSERT_EQ(events.size(), 2u);
  // Worker finished first; it must not inherit this thread's index or
  // attach to this thread's open span.
  EXPECT_EQ(events[0].name, "test.trace.worker");
  EXPECT_NE(events[0].thread, events[1].thread);
  EXPECT_EQ(events[0].parent, 0u);
}

TEST_F(ObsTrace, DisabledSpansVanish) {
  set_enabled(false);
  {
    const Span span("test.trace.dark");
  }
  set_enabled(true);
  EXPECT_TRUE(timeline_events().empty());
}

TEST_F(ObsTrace, ClearDropsEvents) {
  {
    const Span span("test.trace.cleared");
  }
  ASSERT_EQ(timeline_events().size(), 1u);
  timeline_clear();
  EXPECT_TRUE(timeline_events().empty());
}

}  // namespace
}  // namespace cn::obs
