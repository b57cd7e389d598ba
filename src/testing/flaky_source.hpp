// A hostile StreamSource for robustness testing.
//
// Production feeds fail in two characteristic ways the daemon must
// survive: transient read errors (flaky disk / dropped connection —
// retryable) and stalls (a peer that stops answering — the per-read
// deadline must fire so the caller, not the kernel, decides what
// "stuck" means). FlakyStreamSource wraps any StreamSource and injects
// both, deterministically per seed, so the RetryingSource backoff path
// and the daemon's stalled-feed readiness are testable as properties.
#pragma once

#include <cstdint>

#include "io/stream_source.hpp"
#include "util/rng.hpp"

namespace cn::testing {

struct FlakyOptions {
  /// Per-read probability of a kTransient failure (the read can be
  /// retried; the cursor did not advance).
  double transient_rate = 0.0;
  /// Every n-th read stalls (0 = never): the source sleeps for
  /// stall_ms and, when that exceeds the caller's deadline, reports
  /// kTimeout for that attempt instead of producing the event.
  std::uint64_t stall_every = 0;
  int stall_ms = 50;
  /// After this many successful reads the source turns permanently
  /// kCorrupt (0 = never) — the poisoned-feed end state.
  std::uint64_t corrupt_after = 0;
};

class FlakyStreamSource : public io::StreamSource {
 public:
  FlakyStreamSource(io::StreamSource& inner, std::uint64_t seed,
                    FlakyOptions options);

  io::StreamStatus next(io::StreamEvent& out, int deadline_ms) override;
  bool seek(std::uint64_t seq) override { return inner_->seek(seq); }
  std::uint64_t size() const override { return inner_->size(); }

  std::uint64_t transient_failures() const noexcept { return transients_; }
  std::uint64_t stalls() const noexcept { return stalls_; }

 private:
  io::StreamSource* inner_;
  Rng rng_;
  FlakyOptions options_;
  std::uint64_t reads_ = 0;       ///< next() calls observed
  std::uint64_t delivered_ = 0;   ///< successful events passed through
  std::uint64_t transients_ = 0;
  std::uint64_t stalls_ = 0;
};

}  // namespace cn::testing
