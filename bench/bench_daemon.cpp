// cnauditd serving-path benchmark (the always-on watchdog the paper's
// §6.1 calls for): what does it cost to KEEP the audit current, instead
// of recomputing it?
//
// We simulate data set C (the paper's largest), replay it through the
// daemon's incremental accumulators, and measure the three numbers an
// operator plans around:
//   * per-block update latency — apply one committed block to the
//     running scorecards (the steady-state cost of staying current);
//   * recovery time — restore the accumulators from a checkpoint (state
//     file plus event-log segment) after a crash, vs replaying the feed
//     from genesis;
//   * query throughput — /report serves from the sealed cache.
// The replay also checkpoints every 32 blocks, as cnauditd does by
// default, and reports the first and last save's time: a save appends
// only the records since the previous one, so the two should read about
// the same however long the log has grown (reported, not gated).
// The headline gate: one incremental block update must be >= 10x faster
// than rebuilding the report from scratch, at data-set-C scale — the
// bench exits non-zero otherwise, and CI checks the emitted bit.
#include "common.hpp"
#include "worlds.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "btc/coinbase_tags.hpp"
#include "daemon/accumulators.hpp"
#include "daemon/checkpoint.hpp"
#include "daemon/daemon.hpp"
#include "io/dataset_source.hpp"
#include "io/stream_source.hpp"
#include "util/strings.hpp"

namespace {

using namespace cn;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// One full pass of the feed through fresh accumulators plus a seal —
/// exactly what answering a query by batch rebuild costs.
double time_full_rebuild(const io::DatasetHandle& handle,
                         const btc::CoinbaseTagRegistry& registry,
                         const core::FirstSeenFn& first_seen) {
  const auto start = Clock::now();
  daemon::AuditAccumulators acc(registry);
  io::ReplaySource source(handle);
  io::StreamEvent ev;
  while (source.next(ev, 1000) == io::StreamStatus::kOk) {
    if (ev.kind == io::StreamEvent::Kind::kBlock) {
      acc.apply_block(*ev.block, first_seen, ev.seq);
    } else {
      acc.apply_snapshot(ev.snapshot, ev.seq);
    }
  }
  benchmark::DoNotOptimize(daemon::AuditAccumulators::to_json(acc.seal()));
  return seconds_since(start);
}

// Shared state for the micro-benchmarks (built once in main).
daemon::AuditAccumulators* g_acc = nullptr;

void BM_CheckpointEncode(benchmark::State& state) {
  std::vector<std::uint8_t> buffer;
  for (auto _ : state) {
    buffer.clear();
    g_acc->encode(buffer);
    benchmark::DoNotOptimize(buffer.data());
  }
}
BENCHMARK(BM_CheckpointEncode)->Unit(benchmark::kMillisecond);

void BM_SealedReportToJson(benchmark::State& state) {
  const daemon::AuditAccumulators::Report report = g_acc->seal();
  for (auto _ : state) {
    benchmark::DoNotOptimize(daemon::AuditAccumulators::to_json(report));
  }
}
BENCHMARK(BM_SealedReportToJson)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::banner("cnauditd — incremental audit vs batch rebuild",
                "(extension: the always-on watchdog the paper's §6.1 proposes)");

  const std::uint64_t seed = bench::seed_from_env();
  const double scale = bench::scale_from_env(0.25);
  bench::JsonReport json("daemon");

  std::printf("materializing data set C (seed %llu, scale %.2f)...\n",
              static_cast<unsigned long long>(seed), scale);
  io::World world = bench::world_for(
      bench::worlds::baseline(sim::DatasetKind::kC, seed, scale));

  io::DatasetHandle handle;
  handle.chain = std::move(world.chain);
  handle.snapshots = world.snapshots;
  const core::FirstSeenFn first_seen = [&world](const btc::Txid& id) {
    return world.first_seen(id);
  };
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();

  const std::uint64_t blocks = handle.chain.size();
  const std::uint64_t txs = handle.chain.total_tx_count();
  json.metric("blocks", static_cast<double>(blocks));
  json.metric("txs", static_cast<double>(txs));

  // --- steady state: per-event incremental application ------------------
  // Checkpoints go to the same file as the recovery section's below; the
  // first save truncates whatever segment an earlier run left there.
  constexpr std::uint64_t kCheckpointEvery = 32;
  const std::string ckpt = bench::out_dir() + "/bench_daemon.ckpt";
  daemon::CheckpointLog ckpt_log;
  std::vector<double> checkpoint_ms;
  std::string error;
  daemon::AuditAccumulators acc(registry);
  double block_apply_s = 0.0;
  double snapshot_apply_s = 0.0;
  std::uint64_t snapshots = 0;
  {
    io::ReplaySource source(handle);
    io::StreamEvent ev;
    while (source.next(ev, 1000) == io::StreamStatus::kOk) {
      const auto start = Clock::now();
      if (ev.kind == io::StreamEvent::Kind::kBlock) {
        acc.apply_block(*ev.block, first_seen, ev.seq);
        block_apply_s += seconds_since(start);
        if (acc.blocks() % kCheckpointEvery == 0) {
          const auto save_start = Clock::now();
          if (!daemon::save_checkpoint(acc, ckpt, ckpt_log, &error)) {
            std::fprintf(stderr, "checkpoint save failed: %s\n", error.c_str());
            return 1;
          }
          checkpoint_ms.push_back(seconds_since(save_start) * 1e3);
        }
      } else {
        acc.apply_snapshot(ev.snapshot, ev.seq);
        snapshot_apply_s += seconds_since(start);
        ++snapshots;
      }
    }
  }
  const double block_mean_us =
      blocks > 0 ? block_apply_s * 1e6 / static_cast<double>(blocks) : 0.0;
  json.metric("block_apply_mean_us", block_mean_us);
  json.metric("snapshot_apply_mean_us",
              snapshots > 0 ? snapshot_apply_s * 1e6 / static_cast<double>(snapshots)
                            : 0.0);
  json.metric("checkpoints", static_cast<double>(checkpoint_ms.size()));
  if (!checkpoint_ms.empty()) {
    json.metric("checkpoint_first_ms", checkpoint_ms.front());
    json.metric("checkpoint_last_ms", checkpoint_ms.back());
  }

  // Sealing: nothing was sealed before, so the first seal counts the
  // whole pair-violation log as one batch; a repeat at the same stream
  // position adds nothing to the running count.
  const auto seal_cold_start = Clock::now();
  std::string sealed_json = daemon::AuditAccumulators::to_json(acc.seal());
  const double seal_cold_s = seconds_since(seal_cold_start);
  const auto seal_warm_start = Clock::now();
  benchmark::DoNotOptimize(daemon::AuditAccumulators::to_json(acc.seal()));
  const double seal_warm_s = seconds_since(seal_warm_start);
  json.metric("seal_cold_ms", seal_cold_s * 1e3);
  json.metric("seal_warm_ms", seal_warm_s * 1e3);

  // --- the rebuild alternative ------------------------------------------
  const double rebuild_s = time_full_rebuild(handle, registry, first_seen);
  json.metric("rebuild_s", rebuild_s);
  const double block_mean_s = block_mean_us / 1e6;
  const double speedup = block_mean_s > 0.0 ? rebuild_s / block_mean_s : 0.0;
  json.metric("incremental_speedup", speedup);
  const bool speedup_ok = speedup >= 10.0;
  json.metric("incremental_speedup_ok", speedup_ok ? 1.0 : 0.0);

  // --- crash recovery ----------------------------------------------------
  // A final save appends the records since the replay's last checkpoint.
  if (!daemon::save_checkpoint(acc, ckpt, ckpt_log, &error)) {
    std::fprintf(stderr, "checkpoint save failed: %s\n", error.c_str());
    return 1;
  }
  double recovery_s = 0.0;
  {
    const auto start = Clock::now();
    daemon::AuditAccumulators restored(registry);
    const daemon::CheckpointLoad load = daemon::load_checkpoint(
        restored, ckpt, daemon::AccumulatorOptions{}.fingerprint(),
        registry.fingerprint());
    io::ReplaySource source(handle);
    const bool sought = load.ok && load.log.records == ckpt_log.records &&
                        source.seek(load.seq);
    recovery_s = seconds_since(start);
    if (!sought) {
      std::fprintf(stderr, "checkpoint recovery failed\n");
      return 1;
    }
  }
  json.metric("recovery_s", recovery_s);
  json.metric("recovery_speedup",
              recovery_s > 0.0 ? rebuild_s / recovery_s : 0.0);
  json.metric("checkpoint_bytes",
              static_cast<double>(std::filesystem::file_size(ckpt) +
                                  std::filesystem::file_size(
                                      daemon::checkpoint_log_path(ckpt))));

  // --- query throughput: /report from the sealed cache ------------------
  double queries_per_s = 0.0;
  {
    io::ReplaySource source(handle);
    daemon::AuditDaemon served(source, registry, first_seen, daemon::DaemonConfig{});
    if (served.run_to_end() != io::StreamStatus::kEnd) {
      std::fprintf(stderr, "daemon replay did not reach feed end\n");
      return 1;
    }
    (void)served.seal_report_json();
    constexpr int kQueries = 20'000;
    const auto start = Clock::now();
    for (int i = 0; i < kQueries; ++i) {
      benchmark::DoNotOptimize(served.handle({"GET", "/report"}));
    }
    queries_per_s = kQueries / seconds_since(start);
  }
  json.metric("queries_per_s", queries_per_s);

  bench::compare("per-block incremental update", "(stay current)",
                 cn::fixed(block_mean_us, 1) + " us");
  bench::compare("full rebuild to answer one query", "(the alternative)",
                 cn::fixed(rebuild_s * 1e3, 1) + " ms");
  bench::compare("incremental speedup (gate >= 10x)", "(headline)",
                 cn::fixed(speedup, 1) + "x");
  if (!checkpoint_ms.empty()) {
    bench::compare("first vs last checkpoint save", "(flat in log length)",
                   cn::fixed(checkpoint_ms.front(), 2) + " ms vs " +
                       cn::fixed(checkpoint_ms.back(), 2) + " ms");
  }
  bench::compare("checkpoint recovery vs replay", "(crash restart)",
                 cn::fixed(recovery_s * 1e3, 2) + " ms vs " +
                     cn::fixed(rebuild_s * 1e3, 1) + " ms");
  bench::compare("report queries served", "(scraper load)",
                 cn::fixed(queries_per_s / 1e3, 1) + "k/s");

  if (!speedup_ok) {
    std::fprintf(stderr,
                 "FATAL: incremental update only %.1fx faster than rebuild "
                 "(gate: 10x)\n",
                 speedup);
    json.flush();
    return 1;
  }

  g_acc = &acc;
  return cn::bench::run_microbenchmarks(argc, argv);
}
