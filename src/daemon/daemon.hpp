// cnauditd's engine: ingest -> apply -> serve, crash-safe.
//
// The daemon consumes a StreamSource (blocks + mempool snapshots),
// applies each event to the incremental AuditAccumulators, persists
// atomic checkpoints on a block cadence, and serves sealed JSON reports
// plus health/readiness over HTTP (tools/cnauditd.cpp wires the
// routes). run_to_end() is the one execution path: it pulls (with a
// per-read deadline and retry/backoff) and applies on the caller's
// thread, and seals right after the block that reaches the seal
// cadence, so a served report is never more than seal_every_blocks
// behind the applied state. A read that still fails after its retries
// marks the feed stalled, which fails readiness until the next event.
//
// Thread discipline: accumulators_ and checkpoint_log_ are touched only
// by the thread running run_to_end(); queries (handle(), from the HTTP
// thread) read the cached sealed report under report_mu_, and the run
// counters and readiness flags are atomics. The first fatal error's
// cause is kept under fatal_mu_, since /healthz reads it while the run
// may still set it.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "daemon/accumulators.hpp"
#include "daemon/checkpoint.hpp"
#include "daemon/http.hpp"
#include "io/stream_source.hpp"

namespace cn::daemon {

struct DaemonConfig {
  AccumulatorOptions accumulators;

  /// Checkpoint file path; empty disables checkpointing.
  std::string checkpoint_path;
  std::uint64_t checkpoint_every_blocks = 32;
  /// Re-seal (refresh the served report) every N applied blocks.
  std::uint64_t seal_every_blocks = 16;

  int read_deadline_ms = 1'000;
  io::RetryPolicy retry;
  /// Give up (fatal) after this many consecutive exhausted-retry reads.
  int max_consecutive_failures = 100;

  /// Unread. pipebench/pipebench.cpp still sets it; delete the field
  /// together with that line.
  int threads = 1;
};

/// Monotonic run counters (all readable while the daemon runs).
struct DaemonStats {
  std::uint64_t events_applied = 0;
  std::uint64_t blocks_applied = 0;
  std::uint64_t snapshots_applied = 0;
  std::uint64_t checkpoints_written = 0;
  std::uint64_t seals = 0;
  std::uint64_t read_failures = 0;    ///< exhausted-retry next() calls
  std::uint64_t recovered_seq = 0;    ///< checkpoint seq resumed from (0 = cold)
  bool checkpoint_rejected = false;   ///< a checkpoint existed but was unusable
};

class AuditDaemon {
 public:
  /// @p source and @p registry must outlive the daemon. @p first_seen
  /// resolves observer arrival times (may be empty).
  AuditDaemon(io::StreamSource& source, const btc::CoinbaseTagRegistry& registry,
              core::FirstSeenFn first_seen, DaemonConfig config);

  /// Restores from the configured checkpoint (when present and valid)
  /// and seeks the source to one past the restored sequence number. An
  /// unusable checkpoint (torn, wrong fingerprint, a segment missing or
  /// shorter than the state file commits) is discarded — the
  /// daemon cold-starts, which is always safe because replay is
  /// deterministic. Returns false only on a hard source error.
  /// @p message receives a one-line description either way.
  bool recover(std::string* message = nullptr);

  /// Pulls and applies on the calling thread until the feed ends
  /// (kEnd), a fatal error, or stop(). Returns the terminal stream
  /// status.
  io::StreamStatus run_to_end();

  /// Asks a run_to_end() on another thread to return after its current
  /// read (idempotent).
  void stop() noexcept { stop_requested_.store(true); }

  // --- query surface (thread-safe) -----------------------------------

  /// Routes /report, /healthz, /readyz, /metrics.
  HttpResponse handle(const HttpRequest& request);

  /// Seals a fresh report NOW on the calling thread. Only valid on the
  /// thread that runs run_to_end(), or after it returned (see thread
  /// discipline above).
  std::string seal_report_json();

  bool healthy() const noexcept { return !fatal_.load(); }
  /// Why the daemon stopped: the first fatal error (a checkpoint that
  /// could not be saved, naming its file and errno; a corrupt feed; an
  /// exhausted read budget). Empty while healthy().
  std::string fatal_cause() const;
  /// Ready = started, feed not stalled, no fatal error.
  bool ready() const noexcept;

  DaemonStats stats() const;
  const AuditAccumulators& accumulators() const noexcept { return accumulators_; }

 private:
  void apply_event(const io::StreamEvent& event);
  /// Records @p cause unless an earlier one is recorded, then turns the
  /// daemon unhealthy.
  void fail(std::string cause);
  /// A read that was neither an event nor the feed's end: marks the
  /// feed stalled, and fails the daemon on a corrupt event or once the
  /// read budget is exhausted. Returns true when the read loop must stop.
  bool on_bad_read(io::StreamStatus status, int& consecutive_failures,
                   std::uint64_t events_read);
  void maybe_checkpoint();
  void seal_and_cache();

  io::RetryingSource source_;
  const btc::CoinbaseTagRegistry* registry_;
  core::FirstSeenFn first_seen_;
  DaemonConfig config_;
  AuditAccumulators accumulators_;
  /// The checkpoint segment's committed prefix: set by a successful
  /// recover(), reset by every cold start, advanced by each save.
  CheckpointLog checkpoint_log_;

  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> started_{false};
  std::atomic<bool> fatal_{false};
  mutable std::mutex fatal_mu_;
  std::string fatal_cause_;  ///< guarded by fatal_mu_
  /// The last read failed after its retries; cleared by the next event.
  std::atomic<bool> stalled_{false};

  // Stats counters (relaxed; read via stats()).
  std::atomic<std::uint64_t> events_applied_{0};
  std::atomic<std::uint64_t> blocks_applied_{0};
  std::atomic<std::uint64_t> snapshots_applied_{0};
  std::atomic<std::uint64_t> checkpoints_written_{0};
  std::atomic<std::uint64_t> seals_{0};
  std::atomic<std::uint64_t> read_failures_{0};
  std::atomic<std::uint64_t> recovered_seq_{0};
  std::atomic<bool> checkpoint_rejected_{false};
  /// accumulators_.blocks() mirrored for lock-free staleness stamps.
  std::atomic<std::uint64_t> acc_blocks_{0};

  // Cached sealed report (served by /report).
  mutable std::mutex report_mu_;
  std::string cached_report_;
  std::uint64_t cached_version_ = 0;
  std::uint64_t cached_blocks_ = 0;  ///< blocks_applied_ at seal time
};

}  // namespace cn::daemon
