// cn::obs JSON exports: the metrics document schema and the Chrome
// trace-event file. A tiny recursive-descent JSON validator keeps the
// "valid JSON" claim honest without pulling in a parser dependency.
#include "obs/export.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace cn::obs {
namespace {

/// Minimal JSON well-formedness check (objects, arrays, strings,
/// numbers, literals). Returns true iff the whole input is one value.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& s) : s_(s) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    for (++pos_; pos_ < s_.size(); ++pos_) {
      if (s_[pos_] == '\\') { ++pos_; continue; }
      if (s_[pos_] == '"') { ++pos_; return true; }
    }
    return false;
  }
  bool number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(pos_, w.size(), w) != 0) return false;
    pos_ += w.size();
    return true;
  }
  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  const std::string& s_;
  std::size_t pos_ = 0;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ObsExport : public ::testing::Test {
 protected:
  void SetUp() override {
    set_enabled(true);
    reset_for_test();
    timeline_clear();
    // Suffix with the test name: ctest runs each case in its own
    // process, and a shared directory races under `ctest -j`.
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("cn_obs_export_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    set_enabled(true);
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
};

TEST_F(ObsExport, MetricsDocumentIsValidJsonWithSchema) {
  const std::string doc = metrics_json_string();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"schema\": \"cn.obs.metrics/1\""), std::string::npos);
  EXPECT_NE(doc.find("\"counters\""), std::string::npos);
  EXPECT_NE(doc.find("\"gauges\""), std::string::npos);
  EXPECT_NE(doc.find("\"histograms\""), std::string::npos);
  // No wall-clock residue unless meta was asked for.
  EXPECT_EQ(doc.find("wall_unix_seconds"), std::string::npos);
  EXPECT_NE(metrics_json_string(/*with_meta=*/true).find("wall_unix_seconds"),
            std::string::npos);
}

TEST_F(ObsExport, TraceFileIsValidChromeTrace) {
  {
    const Span outer("test.export.outer");
    const Span inner("test.export \"quoted\\\" name");
  }
  const std::string path = (dir_ / "trace.json").string();
  ASSERT_TRUE(write_trace_json(path));
  const std::string doc = slurp(path);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(doc.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("test.export.outer"), std::string::npos);
}

TEST_F(ObsExport, MetricsFileRoundTrips) {
  const Counter c("test.export.counter");
  const Gauge g("test.export.gauge");
  const Histogram h("test.export.hist", {0.5, 1.5});
  c.add(11);
  g.set(2.5);
  h.observe(1.0);
  const std::string path = (dir_ / "metrics.json").string();
  ASSERT_TRUE(write_metrics_json(path));
  const std::string doc = slurp(path);
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  EXPECT_NE(doc.find("\"test.export.counter\": 11"), std::string::npos);
  EXPECT_NE(doc.find("\"test.export.gauge\": 2.5"), std::string::npos);
  EXPECT_NE(doc.find("\"test.export.hist\": {\"buckets\": [0.5, 1.5], "
                     "\"counts\": [0, 1, 0], \"count\": 1, \"sum\": 1"),
            std::string::npos)
      << doc;
}

TEST_F(ObsExport, UnwritablePathReportsFailure) {
  EXPECT_FALSE(write_metrics_json("/nonexistent-dir/metrics.json"));
  EXPECT_FALSE(write_trace_json("/nonexistent-dir/trace.json"));
}

TEST_F(ObsExport, EmptyRegistryStillExportsValidDocuments) {
  const std::string doc = metrics_json_string();
  EXPECT_TRUE(JsonChecker(doc).valid()) << doc;
  const std::string path = (dir_ / "empty_trace.json").string();
  ASSERT_TRUE(write_trace_json(path));
  EXPECT_TRUE(JsonChecker(slurp(path)).valid());
}

}  // namespace
}  // namespace cn::obs
