// Streaming feed of audit events — the serving layer's ingest API.
//
// A batch audit loads a whole data set and scans it; the always-on
// daemon (src/daemon) instead *pulls* an ordered stream of events —
// mined blocks interleaved with the observer's 15 s Mempool snapshots —
// and applies each one incrementally. StreamSource is that pull API:
//
//   StreamEvent ev;
//   while (source.next(ev, /*deadline_ms=*/1000) == StreamStatus::kOk)
//     apply(ev);
//
// Every event carries a monotonically increasing sequence number (its
// 1-based position in the merged feed), which is the daemon's recovery
// cursor: a checkpoint records the last applied sequence number, and a
// restarted daemon calls seek(seq) to resume exactly one event past it.
// Replaying the same feed always yields the same (seq, event) pairs —
// the chaos harness's byte-identical-convergence invariant rests on
// this.
//
// Failure semantics mirror a production feed rather than a local file:
//   kOk        an event was produced;
//   kEnd       the feed is exhausted (replay sources are finite);
//   kTimeout   the source could not produce an event within the
//              caller's deadline — retryable;
//   kTransient a recoverable read failure (flaky disk/socket) —
//              retryable;
//   kCorrupt   the source is poisoned and no further reads can succeed.
//
// RetryingSource wraps any source with the standard production policy:
// per-read deadlines plus retry-with-exponential-backoff on kTimeout /
// kTransient, giving up only after RetryPolicy::max_attempts.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "btc/block.hpp"
#include "io/dataset_source.hpp"
#include "node/snapshot.hpp"
#include "util/time.hpp"

namespace cn::io {

enum class StreamStatus {
  kOk,         ///< an event was produced
  kEnd,        ///< feed exhausted (finite replay source)
  kTimeout,    ///< no event within the deadline — retryable
  kTransient,  ///< recoverable read failure — retryable
  kCorrupt,    ///< source poisoned; no further read can succeed
};

/// Stable lower-case label ("ok", "end", "timeout", "transient",
/// "corrupt").
const char* to_string(StreamStatus status);

/// One feed event. Block events point into source-owned storage: the
/// pointer stays valid for the lifetime of the source, never past it.
struct StreamEvent {
  enum class Kind : std::uint8_t { kBlock, kSnapshot };
  Kind kind = Kind::kBlock;
  /// 1-based position in the merged feed; strictly increasing.
  std::uint64_t seq = 0;
  /// Event time (block mined_at / snapshot time).
  SimTime time = 0;
  const btc::Block* block = nullptr;  ///< kBlock only; source-owned
  node::MempoolStat snapshot{};       ///< kSnapshot only
};

class StreamSource {
 public:
  virtual ~StreamSource() = default;

  /// Pulls the next event. @p deadline_ms bounds how long the source may
  /// block before giving up with kTimeout (best effort; replay sources
  /// return instantly). On kOk, @p out is filled; on any other status it
  /// is untouched and the cursor did not advance, so the call may be
  /// retried.
  virtual StreamStatus next(StreamEvent& out, int deadline_ms) = 0;

  /// Repositions the cursor so the next successful next() yields the
  /// event with sequence number @p seq + 1 (seek(0) rewinds). Returns
  /// false when the feed is shorter than @p seq.
  virtual bool seek(std::uint64_t seq) = 0;

  /// Total events in the feed (0 when unknown/unbounded).
  virtual std::uint64_t size() const = 0;
};

/// Replay source over a loaded data set: every block of the chain, in
/// height order, merged with the snapshot series in time order.
/// Snapshots at or before a block's mined_at sort before the block
/// (the observer records a snapshot before it sees the block); ties
/// between a snapshot and a block at the same instant go to the
/// snapshot. The merge is pure (no state beyond the two cursors), so
/// seek() is O(1) arithmetic over the two counts.
class ReplaySource : public StreamSource {
 public:
  /// @p handle must outlive the source; block pointers handed out by
  /// next() point into it.
  explicit ReplaySource(const DatasetHandle& handle);

  StreamStatus next(StreamEvent& out, int deadline_ms) override;
  bool seek(std::uint64_t seq) override;
  std::uint64_t size() const override;

  const DatasetHandle& dataset() const noexcept { return *handle_; }

 private:
  const DatasetHandle* handle_;
  std::uint64_t block_cursor_ = 0;     ///< next block index
  std::uint64_t snapshot_cursor_ = 0;  ///< next snapshot index
  std::uint64_t next_seq_ = 1;
};

/// Production retry policy: per-read deadline plus exponential backoff
/// between attempts on retryable failures.
struct RetryPolicy {
  int max_attempts = 5;          ///< total tries per next() call
  int base_backoff_ms = 10;      ///< sleep before the first retry
  double backoff_multiplier = 2.0;
  int max_backoff_ms = 2'000;    ///< backoff ceiling
};

/// Decorator adding RetryPolicy semantics to any StreamSource. kTimeout
/// and kTransient results are retried (with backoff) up to
/// policy.max_attempts; the final failure status is passed through.
/// kCorrupt and kEnd are never retried. Retries and backoff sleeps are
/// counted in the cn::obs registry ("io.stream.retries",
/// "io.stream.backoff_ms").
class RetryingSource : public StreamSource {
 public:
  RetryingSource(StreamSource& inner, RetryPolicy policy);

  StreamStatus next(StreamEvent& out, int deadline_ms) override;
  bool seek(std::uint64_t seq) override { return inner_->seek(seq); }
  std::uint64_t size() const override { return inner_->size(); }

  /// Total retries performed over this source's lifetime.
  std::uint64_t retries() const noexcept { return retries_; }

 private:
  StreamSource* inner_;
  RetryPolicy policy_;
  std::uint64_t retries_ = 0;
};

}  // namespace cn::io
