// AuditDaemon (daemon/daemon.hpp) end-to-end properties, in-process:
// run_to_end seals at every cadence point; a daemon restarted from a
// mid-stream checkpoint converges to the uninterrupted run's bytes (the
// chaos harness proves the same with real SIGKILLs —
// tools/test_chaos.cmake); torn checkpoints and a missing event-log
// segment are rejected and cold-start; a flaky feed drains through
// retry/backoff; a poisoned feed and an exhausted read budget turn the
// daemon unhealthy; a dead feed fails readiness but not health; the
// HTTP surface serves reports, health, and staleness stamps; a client
// that resets mid-request does not take the server down; and a client
// that is idle or sends its head a byte at a time holds the server for
// at most the head deadline.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../helpers.hpp"
#include "btc/coinbase_tags.hpp"
#include "daemon/daemon.hpp"
#include "daemon/http.hpp"
#include "io/dataset_source.hpp"
#include "io/stream_source.hpp"
#include "node/snapshot.hpp"
#include "testing/flaky_source.hpp"

namespace cn::daemon {
namespace {

const core::FirstSeenFn kNoFirstSeen =
    [](const btc::Txid&) -> std::optional<SimTime> { return std::nullopt; };

/// A 40-block two-pool feed with interleaved snapshots — enough events
/// for several checkpoint/seal cycles at the cadences used below.
io::DatasetHandle make_feed() {
  io::DatasetHandle handle;
  btc::Chain chain(900);
  for (std::uint64_t h = 900; h < 940; ++h) {
    std::vector<double> rates;
    switch (h % 3) {
      case 0: rates = {9.0, 6.0, 3.0}; break;
      case 1: rates = {2.0, 7.0}; break;
      default: rates = {5.0, 0.4, 4.0}; break;
    }
    chain.append(cn::test::block_with_rates(
        h, rates, h % 2 == 0 ? "/F2Pool/" : "/ViaBTC/",
        static_cast<SimTime>(600 * (h - 899))));
  }
  handle.chain = std::move(chain);
  node::SnapshotSeries snaps;
  for (SimTime t = 300; t <= 24'300; t += 600) {
    snaps.record({t, 5 + static_cast<std::uint64_t>(t % 7),
                  800'000 + static_cast<std::uint64_t>(t) * 37});
  }
  handle.snapshots = std::move(snaps);
  return handle;
}

DaemonConfig test_config() {
  DaemonConfig config;
  config.accumulators.neutrality.min_blocks = 2;
  config.checkpoint_every_blocks = 8;
  config.seal_every_blocks = 4;
  config.read_deadline_ms = 200;
  config.retry.max_attempts = 8;
  config.retry.base_backoff_ms = 1;
  config.retry.max_backoff_ms = 2;
  return config;
}

/// The uninterrupted reference report for the shared feed.
std::string reference_report(const io::DatasetHandle& feed,
                             const core::FirstSeenFn& first_seen = kNoFirstSeen) {
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(source, registry, first_seen, test_config());
  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
  return daemon.seal_report_json();
}

TEST(AuditDaemon, SealsAtEveryCadencePoint) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const DaemonConfig config = test_config();
  AuditDaemon daemon(source, registry, kNoFirstSeen, config);
  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
  const DaemonStats stats = daemon.stats();
  EXPECT_EQ(stats.blocks_applied, feed.chain.size());
  EXPECT_EQ(stats.snapshots_applied, feed.snapshots->size());
  ASSERT_EQ(feed.chain.size() % config.seal_every_blocks, 0u);
  EXPECT_EQ(stats.seals, feed.chain.size() / config.seal_every_blocks);
  // The last block reached the cadence, so the served report is its
  // seal, with no blocks behind it.
  const HttpResponse report = daemon.handle({"GET", "/report"});
  EXPECT_EQ(report.status, 200);
  const std::pair<std::string, std::string> fresh{"X-CN-Staleness-Blocks", "0"};
  EXPECT_NE(std::find(report.headers.begin(), report.headers.end(), fresh),
            report.headers.end());
}

/// Removes a checkpoint's state file and segment.
void remove_checkpoint(const std::string& path) {
  std::filesystem::remove(path);
  std::filesystem::remove(checkpoint_log_path(path));
}

TEST(AuditDaemon, RestartFromCheckpointConvergesByteIdentically) {
  const io::DatasetHandle feed = make_feed();
  const std::string ref = reference_report(feed, cn::test::seen_at_txid);
  const std::string ckpt =
      ::testing::TempDir() + "/cn_daemon_restart.ckpt";
  remove_checkpoint(ckpt);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();

  // First incarnation: apply only a prefix (stop after ~19 blocks by
  // bounding the feed), leaving a mid-stream checkpoint behind.
  {
    io::DatasetHandle prefix = make_feed();
    btc::Chain shorter(900);
    for (std::uint64_t h = 900; h < 919; ++h) {
      shorter.append(feed.chain.at_height(h));
    }
    prefix.chain = std::move(shorter);
    io::ReplaySource source(prefix);
    DaemonConfig config = test_config();
    config.checkpoint_path = ckpt;
    AuditDaemon daemon(source, registry, cn::test::seen_at_txid, config);
    std::string message;
    ASSERT_TRUE(daemon.recover(&message));
    EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
    EXPECT_GT(daemon.stats().checkpoints_written, 0u);
    EXPECT_GT(daemon.accumulators().log_size(), 0u);
  }

  // Second incarnation: full feed, recovered from the prefix's last
  // checkpoint — must converge to the uninterrupted bytes.
  {
    io::ReplaySource source(feed);
    DaemonConfig config = test_config();
    config.checkpoint_path = ckpt;
    AuditDaemon daemon(source, registry, cn::test::seen_at_txid, config);
    std::string message;
    ASSERT_TRUE(daemon.recover(&message));
    EXPECT_NE(message.find("recovered"), std::string::npos) << message;
    EXPECT_GT(daemon.stats().recovered_seq, 0u);
    EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
    EXPECT_EQ(daemon.seal_report_json(), ref);
  }
  remove_checkpoint(ckpt);
}

TEST(AuditDaemon, TornCheckpointIsRejectedAndColdStarts) {
  const io::DatasetHandle feed = make_feed();
  const std::string ref = reference_report(feed);
  const std::string ckpt = ::testing::TempDir() + "/cn_daemon_torn.ckpt";
  {
    std::ofstream out(ckpt, std::ios::binary | std::ios::trunc);
    out << "CNCP1 but torn to shreds";
  }
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  DaemonConfig config = test_config();
  config.checkpoint_path = ckpt;
  AuditDaemon daemon(source, registry, kNoFirstSeen, config);
  std::string message;
  ASSERT_TRUE(daemon.recover(&message));
  EXPECT_NE(message.find("rejected"), std::string::npos) << message;
  EXPECT_TRUE(daemon.stats().checkpoint_rejected);
  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
  EXPECT_EQ(daemon.seal_report_json(), ref);
  remove_checkpoint(ckpt);
}

TEST(AuditDaemon, MissingSegmentIsRejectedAndColdStarts) {
  const io::DatasetHandle feed = make_feed();
  const std::string ref = reference_report(feed, cn::test::seen_at_txid);
  const std::string ckpt = ::testing::TempDir() + "/cn_daemon_no_segment.ckpt";
  remove_checkpoint(ckpt);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  DaemonConfig config = test_config();
  config.checkpoint_path = ckpt;
  {
    io::ReplaySource source(feed);
    AuditDaemon daemon(source, registry, cn::test::seen_at_txid, config);
    ASSERT_TRUE(daemon.recover());
    EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
    ASSERT_GT(daemon.stats().checkpoints_written, 0u);
    ASSERT_GT(daemon.accumulators().log_size(), 0u);
  }
  // The state file still commits records; without them the checkpoint
  // is a defect to report, not the quiet "no checkpoint" start.
  std::filesystem::remove(checkpoint_log_path(ckpt));
  io::ReplaySource source(feed);
  AuditDaemon daemon(source, registry, cn::test::seen_at_txid, config);
  std::string message;
  ASSERT_TRUE(daemon.recover(&message));
  EXPECT_NE(message.find("checkpoint rejected"), std::string::npos) << message;
  EXPECT_TRUE(daemon.stats().checkpoint_rejected);
  EXPECT_EQ(daemon.stats().recovered_seq, 0u);
  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
  EXPECT_EQ(daemon.seal_report_json(), ref);
  remove_checkpoint(ckpt);
}

TEST(AuditDaemon, FlakyFeedDrainsThroughRetries) {
  const io::DatasetHandle feed = make_feed();
  const std::string ref = reference_report(feed);

  io::ReplaySource replay(feed);
  cn::testing::FlakyOptions flaky_options;
  flaky_options.transient_rate = 0.3;
  cn::testing::FlakyStreamSource flaky(replay, 17, flaky_options);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(flaky, registry, kNoFirstSeen, test_config());
  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
  EXPECT_GT(flaky.transient_failures(), 0u);
  EXPECT_EQ(daemon.seal_report_json(), ref);
  EXPECT_TRUE(daemon.healthy());
}

TEST(AuditDaemon, PoisonedFeedTurnsUnhealthy) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource replay(feed);
  cn::testing::FlakyOptions flaky_options;
  flaky_options.corrupt_after = 10;
  cn::testing::FlakyStreamSource flaky(replay, 1, flaky_options);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(flaky, registry, kNoFirstSeen, test_config());
  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kCorrupt);
  EXPECT_FALSE(daemon.healthy());
  EXPECT_FALSE(daemon.ready());
  const HttpResponse health = daemon.handle({"GET", "/healthz"});
  EXPECT_EQ(health.status, 503);
  EXPECT_NE(daemon.fatal_cause().find("corrupt feed event"), std::string::npos)
      << daemon.fatal_cause();
}

TEST(AuditDaemon, UnwritableCheckpointNamesTheFileAndErrno) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  DaemonConfig config = test_config();
  config.checkpoint_path = ::testing::TempDir() + "/cn_daemon_no_such_dir/x.ckpt";
  std::filesystem::remove_all(::testing::TempDir() + "/cn_daemon_no_such_dir");
  AuditDaemon daemon(source, registry, kNoFirstSeen, config);
  EXPECT_TRUE(daemon.fatal_cause().empty());
  daemon.run_to_end();
  EXPECT_FALSE(daemon.healthy());
  EXPECT_EQ(daemon.stats().blocks_applied, config.checkpoint_every_blocks);
  const std::string cause = daemon.fatal_cause();
  EXPECT_NE(cause.find(config.checkpoint_path), std::string::npos) << cause;
  EXPECT_NE(cause.find("No such file or directory"), std::string::npos) << cause;
  EXPECT_NE(daemon.handle({"GET", "/healthz"}).body.find(cause), std::string::npos);
}

// A feed that delivers a few events and then stops answering forever.
class DeadAfterSource : public io::StreamSource {
 public:
  DeadAfterSource(io::StreamSource& inner, std::uint64_t alive)
      : inner_(&inner), alive_(alive) {}
  io::StreamStatus next(io::StreamEvent& out, int deadline_ms) override {
    if (delivered_ >= alive_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(deadline_ms));
      return io::StreamStatus::kTimeout;
    }
    const io::StreamStatus status = inner_->next(out, deadline_ms);
    if (status == io::StreamStatus::kOk) ++delivered_;
    return status;
  }
  bool seek(std::uint64_t seq) override { return inner_->seek(seq); }
  std::uint64_t size() const override { return inner_->size(); }

 private:
  io::StreamSource* inner_;
  std::uint64_t alive_;
  std::uint64_t delivered_ = 0;
};

/// test_config() with short reads and two attempts per read, so a dead
/// feed fails a read after ~20 ms.
DaemonConfig dead_feed_config() {
  DaemonConfig config = test_config();
  config.read_deadline_ms = 10;
  config.retry.max_attempts = 2;
  return config;
}

TEST(AuditDaemon, DeadFeedFailsReadinessButNotHealth) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource replay(feed);
  DeadAfterSource dead(replay, 5);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  DaemonConfig config = dead_feed_config();
  config.max_consecutive_failures = 1'000'000;  // keep polling, never fatal
  AuditDaemon daemon(dead, registry, kNoFirstSeen, config);
  io::StreamStatus status = io::StreamStatus::kOk;
  std::thread run([&daemon, &status] { status = daemon.run_to_end(); });

  // The five live events apply quickly; then every read fails after its
  // retries, and the first such read marks the feed stalled.
  bool became_unready = false;
  for (int i = 0; i < 100 && !became_unready; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    became_unready = daemon.stats().events_applied >= 5 && !daemon.ready();
  }
  const HttpResponse ready = daemon.handle({"GET", "/readyz"});
  const bool healthy = daemon.healthy();
  daemon.stop();
  run.join();

  EXPECT_TRUE(became_unready);
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("stalled"), std::string::npos) << ready.body;
  EXPECT_TRUE(healthy);  // stalled, not dead
  EXPECT_EQ(daemon.handle({"GET", "/healthz"}).status, 200);
  EXPECT_EQ(status, io::StreamStatus::kTimeout);
  EXPECT_EQ(daemon.stats().events_applied, 5u);
}

TEST(AuditDaemon, ExhaustedReadBudgetTurnsUnhealthy) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource replay(feed);
  DeadAfterSource dead(replay, 5);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  DaemonConfig config = dead_feed_config();
  config.max_consecutive_failures = 3;
  AuditDaemon daemon(dead, registry, kNoFirstSeen, config);
  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kTimeout);
  EXPECT_FALSE(daemon.healthy());
  EXPECT_FALSE(daemon.ready());
  EXPECT_EQ(daemon.stats().read_failures, 3u);
  const std::string cause = daemon.fatal_cause();
  EXPECT_NE(cause.find("3 consecutive feed reads failed"), std::string::npos) << cause;
  EXPECT_NE(cause.find("after 5 events"), std::string::npos) << cause;
  EXPECT_EQ(daemon.handle({"GET", "/healthz"}).status, 503);
}

// --- HTTP surface -------------------------------------------------------

/// A connected loopback socket, or -1.
int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

std::string http_get_once(std::uint16_t port, const std::string& target) {
  const int fd = connect_loopback(port);
  if (fd < 0) return {};
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      response.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;
  }
  ::close(fd);
  return response;
}

std::string http_get(std::uint16_t port, const std::string& target) {
  // A loopback connect can still fail transiently on a loaded CI box;
  // retry the whole exchange a few times before reporting emptiness.
  for (int attempt = 0; attempt < 10; ++attempt) {
    std::string response = http_get_once(port, target);
    if (!response.empty()) return response;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return {};
}

TEST(AuditDaemon, HttpSurfaceServesReportHealthAndStaleness) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(source, registry, kNoFirstSeen, test_config());

  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.start(
      0, [&daemon](const HttpRequest& r) { return daemon.handle(r); }, &error))
      << error;
  ASSERT_GT(server.port(), 0);

  // Before anything is sealed, /report is an honest 503.
  std::string resp = http_get(server.port(), "/report");
  EXPECT_NE(resp.find("503"), std::string::npos) << resp;

  EXPECT_EQ(daemon.run_to_end(), io::StreamStatus::kEnd);
  const std::string sealed = daemon.seal_report_json();

  resp = http_get(server.port(), "/report");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  EXPECT_NE(resp.find("X-CN-Report-Version:"), std::string::npos) << resp;
  EXPECT_NE(resp.find("X-CN-Staleness-Blocks: 0"), std::string::npos) << resp;
  // The body is the sealed JSON, bit for bit.
  const std::size_t body_at = resp.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_EQ(resp.substr(body_at + 4), sealed);

  resp = http_get(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  resp = http_get(server.port(), "/metrics");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos);
  resp = http_get(server.port(), "/nonsense");
  EXPECT_NE(resp.find("404"), std::string::npos);
  EXPECT_GE(server.requests_served(), 5u);
  server.stop();
}

TEST(AuditDaemon, ClientResetMidRequestLeavesTheServerServing) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(source, registry, kNoFirstSeen, test_config());
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.start(
      0, [&daemon](const HttpRequest& r) { return daemon.handle(r); }, &error))
      << error;

  // A request line without the blank line that ends the head, then an
  // abortive close (SO_LINGER {1, 0} sends a reset). The server's read
  // fails, it answers anyway, and that write meets the reset connection.
  const int fd = connect_loopback(server.port());
  ASSERT_GE(fd, 0);
  const std::string partial = "GET /report HTTP/1.1\r\n";
  ASSERT_EQ(::send(fd, partial.data(), partial.size(), 0),
            static_cast<ssize_t>(partial.size()));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const linger reset{1, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_LINGER, &reset, sizeof reset), 0);
  ::close(fd);

  const std::string resp = http_get(server.port(), "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  server.stop();
}

/// Seconds a GET /healthz takes; it must be answered 200.
double timed_healthz(std::uint16_t port) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::string resp = http_get(port, "/healthz");
  EXPECT_NE(resp.find("HTTP/1.1 200 OK"), std::string::npos) << resp;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

TEST(AuditDaemon, IdleConnectionDoesNotHoldBackHealthz) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(source, registry, kNoFirstSeen, test_config());
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.start(
      0, [&daemon](const HttpRequest& r) { return daemon.handle(r); }, &error))
      << error;

  // Connected first and never sends a byte: the server takes it first
  // and must give up on it at the head deadline, not after 5 s.
  const int idle = connect_loopback(server.port());
  ASSERT_GE(idle, 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(timed_healthz(server.port()), 2.0);
  ::close(idle);
  server.stop();
}

TEST(AuditDaemon, TricklingClientIsCutOffAtTheHeadDeadline) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(source, registry, kNoFirstSeen, test_config());
  HttpServer server;
  std::string error;
  ASSERT_TRUE(server.start(
      0, [&daemon](const HttpRequest& r) { return daemon.handle(r); }, &error))
      << error;

  // One byte every 100 ms of a head that would take 10 s to finish. A
  // send fails once the server has closed the connection.
  const int slow = connect_loopback(server.port());
  ASSERT_GE(slow, 0);
  std::atomic<bool> cut_off{false};
  std::thread trickler([slow, &cut_off] {
    const std::string head = "GET /healthz HTTP/1.1\r\nX-Slow: " + std::string(80, 'x');
    for (const char c : head) {
      if (::send(slow, &c, 1, MSG_NOSIGNAL) != 1) {
        cut_off.store(true);
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(timed_healthz(server.port()), 2.0);
  trickler.join();
  EXPECT_TRUE(cut_off.load()) << "the server read the whole trickled head";
  ::close(slow);
  server.stop();
}

TEST(AuditDaemon, NonGetMethodsAreRejected) {
  const io::DatasetHandle feed = make_feed();
  io::ReplaySource source(feed);
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditDaemon daemon(source, registry, kNoFirstSeen, test_config());
  const HttpResponse resp = daemon.handle({"POST", "/report"});
  EXPECT_EQ(resp.status, 400);
}

}  // namespace
}  // namespace cn::daemon
