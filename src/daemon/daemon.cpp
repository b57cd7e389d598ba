#include "daemon/daemon.hpp"

#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "testing/crash_points.hpp"

namespace cn::daemon {

namespace {

const obs::Counter& events_counter() {
  static const obs::Counter c("daemon.events_applied");
  return c;
}
const obs::Counter& checkpoint_counter() {
  static const obs::Counter c("daemon.checkpoints");
  return c;
}

}  // namespace

AuditDaemon::AuditDaemon(io::StreamSource& source,
                         const btc::CoinbaseTagRegistry& registry,
                         core::FirstSeenFn first_seen, DaemonConfig config)
    : source_(source, config.retry),
      registry_(&registry),
      first_seen_(std::move(first_seen)),
      config_(config),
      accumulators_(registry, config.accumulators) {}

bool AuditDaemon::recover(std::string* message) {
  if (config_.checkpoint_path.empty()) {
    if (message != nullptr) *message = "checkpointing disabled; cold start";
    return true;
  }
  CheckpointLoad load = load_checkpoint(
      accumulators_, config_.checkpoint_path,
      config_.accumulators.fingerprint(), registry_->fingerprint());
  if (!load.ok) {
    // Any unusable checkpoint (missing, torn, mismatched fingerprints)
    // means a cold start. Replay is deterministic, so starting over is
    // always correct — just slower. decode() may have left partial
    // state; rebuild from scratch.
    accumulators_ = AuditAccumulators(*registry_, config_.accumulators);
    checkpoint_log_ = {};
    const bool missing = load.error.has_value() &&
                         load.error->kind == io::LoadErrorKind::kFileOpen;
    if (!missing) checkpoint_rejected_.store(true);
    if (message != nullptr) {
      *message = missing ? "no checkpoint; cold start"
                         : "checkpoint rejected (" +
                               (load.error ? load.error->detail : std::string()) +
                               "); cold start";
    }
    return true;
  }
  if (!source_.seek(load.seq)) {
    // Feed shorter than the checkpoint — e.g. the daemon was pointed at
    // a truncated replay. Cold-start rather than serve sums the feed
    // cannot reproduce.
    accumulators_ = AuditAccumulators(*registry_, config_.accumulators);
    checkpoint_log_ = {};
    checkpoint_rejected_.store(true);
    source_.seek(0);
    if (message != nullptr) {
      *message = "checkpoint seq " + std::to_string(load.seq) +
                 " beyond feed end; cold start";
    }
    return true;
  }
  checkpoint_log_ = load.log;
  recovered_seq_.store(load.seq);
  acc_blocks_.store(accumulators_.blocks(), std::memory_order_relaxed);
  if (message != nullptr) {
    *message = "recovered from checkpoint at seq " + std::to_string(load.seq);
  }
  return true;
}

void AuditDaemon::apply_event(const io::StreamEvent& event) {
  testing::crash_point("daemon.apply");
  if (event.kind == io::StreamEvent::Kind::kBlock) {
    accumulators_.apply_block(*event.block, first_seen_, event.seq);
    blocks_applied_.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t blocks = accumulators_.blocks();
    acc_blocks_.store(blocks, std::memory_order_relaxed);
    // Both cadences key off the *accumulated* block count, which
    // survives restarts — so a recovered daemon checkpoints and seals
    // at the same stream positions the uninterrupted run would.
    if (config_.checkpoint_every_blocks > 0 &&
        blocks % config_.checkpoint_every_blocks == 0) {
      maybe_checkpoint();
    }
    if (config_.seal_every_blocks > 0 &&
        blocks % config_.seal_every_blocks == 0) {
      seal_and_cache();
    }
  } else {
    accumulators_.apply_snapshot(event.snapshot, event.seq);
    snapshots_applied_.fetch_add(1, std::memory_order_relaxed);
  }
  events_applied_.fetch_add(1, std::memory_order_relaxed);
  events_counter().add();
}

void AuditDaemon::fail(std::string cause) {
  {
    std::lock_guard<std::mutex> lock(fatal_mu_);
    if (fatal_cause_.empty()) fatal_cause_ = std::move(cause);
  }
  fatal_.store(true);
}

std::string AuditDaemon::fatal_cause() const {
  std::lock_guard<std::mutex> lock(fatal_mu_);
  return fatal_cause_;
}

bool AuditDaemon::on_bad_read(io::StreamStatus status, int& consecutive_failures,
                              std::uint64_t events_read) {
  if (status == io::StreamStatus::kCorrupt) {
    fail("corrupt feed event after " + std::to_string(events_read) + " events");
    return true;
  }
  // Retries already exhausted inside RetryingSource: the feed is stalled
  // until an event arrives. Count and keep trying until the failure
  // budget runs out.
  stalled_.store(true);
  read_failures_.fetch_add(1, std::memory_order_relaxed);
  if (++consecutive_failures < config_.max_consecutive_failures) return false;
  fail(std::to_string(consecutive_failures) +
       " consecutive feed reads failed after retries (after " +
       std::to_string(events_read) + " events)");
  return true;
}

void AuditDaemon::maybe_checkpoint() {
  if (config_.checkpoint_path.empty()) return;
  std::string error;
  if (!save_checkpoint(accumulators_, config_.checkpoint_path, checkpoint_log_,
                       &error)) {
    // A daemon that cannot persist progress must not pretend to be
    // durable: flag fatal so readiness fails and the operator notices.
    fail("checkpoint save failed: " + error);
    return;
  }
  testing::crash_point("daemon.post_checkpoint");
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  checkpoint_counter().add();
}

void AuditDaemon::seal_and_cache() {
  const AuditAccumulators::Report report = accumulators_.seal();
  std::string json = AuditAccumulators::to_json(report);
  std::lock_guard<std::mutex> lock(report_mu_);
  cached_report_ = std::move(json);
  cached_version_ = report.version;
  cached_blocks_ = report.blocks;
  seals_.fetch_add(1, std::memory_order_relaxed);
}

io::StreamStatus AuditDaemon::run_to_end() {
  started_.store(true);
  int consecutive_failures = 0;
  std::uint64_t events_read = 0;
  io::StreamEvent event;
  io::StreamStatus status = io::StreamStatus::kEnd;
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    status = source_.next(event, config_.read_deadline_ms);
    if (status == io::StreamStatus::kOk) {
      consecutive_failures = 0;
      stalled_.store(false, std::memory_order_relaxed);
      ++events_read;
      apply_event(event);
      if (fatal_.load()) break;
      continue;
    }
    if (status == io::StreamStatus::kEnd) break;
    if (on_bad_read(status, consecutive_failures, events_read)) break;
  }
  return status;
}

bool AuditDaemon::ready() const noexcept {
  return started_.load() && !fatal_.load() && !stalled_.load();
}

std::string AuditDaemon::seal_report_json() {
  seal_and_cache();
  std::lock_guard<std::mutex> lock(report_mu_);
  return cached_report_;
}

DaemonStats AuditDaemon::stats() const {
  DaemonStats s;
  s.events_applied = events_applied_.load();
  s.blocks_applied = blocks_applied_.load();
  s.snapshots_applied = snapshots_applied_.load();
  s.checkpoints_written = checkpoints_written_.load();
  s.seals = seals_.load();
  s.read_failures = read_failures_.load();
  s.recovered_seq = recovered_seq_.load();
  s.checkpoint_rejected = checkpoint_rejected_.load();
  return s;
}

HttpResponse AuditDaemon::handle(const HttpRequest& request) {
  HttpResponse resp;
  if (request.method != "GET") {
    resp.status = 400;
    resp.content_type = "text/plain";
    resp.body = "only GET is supported\n";
    return resp;
  }
  const std::string target = request.target.substr(0, request.target.find('?'));

  if (target == "/report") {
    std::lock_guard<std::mutex> lock(report_mu_);
    if (cached_report_.empty()) {
      resp.status = 503;
      resp.content_type = "text/plain";
      resp.body = "no report sealed yet\n";
      return resp;
    }
    resp.body = cached_report_;
    resp.headers.emplace_back("X-CN-Report-Version",
                              std::to_string(cached_version_));
    const std::uint64_t applied_blocks =
        acc_blocks_.load(std::memory_order_relaxed);
    const std::uint64_t staleness =
        applied_blocks > cached_blocks_ ? applied_blocks - cached_blocks_ : 0;
    resp.headers.emplace_back("X-CN-Staleness-Blocks", std::to_string(staleness));
    return resp;
  }
  if (target == "/healthz") {
    resp.content_type = "text/plain";
    if (healthy()) {
      resp.body = "ok\n";
    } else {
      resp.status = 503;
      resp.body = "fatal error: " + fatal_cause() + "\n";
    }
    return resp;
  }
  if (target == "/readyz") {
    resp.content_type = "text/plain";
    if (ready()) {
      resp.body = "ready\n";
    } else {
      resp.status = 503;
      resp.body = std::string("not ready: ") +
                  (!started_.load() ? "not started"
                   : fatal_.load()  ? "fatal error"
                                    : "ingest stalled") +
                  "\n";
    }
    return resp;
  }
  if (target == "/metrics") {
    resp.body = obs::metrics_json_string();
    return resp;
  }
  resp.status = 404;
  resp.content_type = "text/plain";
  resp.body = "unknown target\n";
  return resp;
}

}  // namespace cn::daemon
