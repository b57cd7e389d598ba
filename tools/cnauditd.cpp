// cnauditd — the always-on chain-neutrality audit daemon.
//
//   cnauditd --input PATH [--policy strict|lenient]
//            [--checkpoint PATH] [--checkpoint-every N] [--seal-every N]
//            [--oneshot] [--out PATH] [--serve] [--http-port N]
//            [--read-deadline-ms N] [--metrics-out PATH]
//
// Consumes the data set as an ordered event stream (blocks merged with
// Mempool snapshots) on one pull loop, applies each event to incremental
// audit accumulators, re-seals the served report every --seal-every
// blocks, and checkpoints progress atomically every --checkpoint-every
// blocks. Killed at ANY instant — including mid-checkpoint — a restart
// with the same flags resumes from the last durable checkpoint and
// produces the same final report, byte for byte, as an uninterrupted
// run (tools/test_chaos.cmake proves this under armed kill points; see
// CN_CRASH_AT in src/testing/crash_points.hpp).
//
//   --oneshot (default)  drain the feed, write the sealed JSON report
//                        to --out (stdout when omitted), exit.
//   --serve              also bind 127.0.0.1:--http-port (0 =
//                        ephemeral; the bound port is printed) serving
//                        /report /healthz /readyz /metrics, and keep
//                        serving after the feed drains until SIGINT or
//                        SIGTERM. /readyz answers 503 "ingest
//                        stalled" while a feed read fails after its
//                        retries, until the next event arrives.
//
// An option it does not read, a numeric value that does not parse
// whole, or a --http-port above 65535 is rejected with exit 2, naming
// the option (tools/args.hpp).
#include <csignal>
#include <cstdio>
#include <limits>
#include <optional>
#include <string>
#include <thread>

#include "btc/coinbase_tags.hpp"
#include "daemon/daemon.hpp"
#include "io/dataset_source.hpp"
#include "io/stream_source.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "testing/crash_points.hpp"

#include "args.hpp"

namespace {

using namespace cn;
using cli::Args;

int usage() {
  std::fprintf(
      stderr,
      "usage: cnauditd --input PATH [--policy strict|lenient]\n"
      "                [--checkpoint PATH] [--checkpoint-every N] [--seal-every N]\n"
      "                [--oneshot] [--out PATH] [--serve] [--http-port N]\n"
      "                [--read-deadline-ms N] [--metrics-out PATH]\n");
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
void on_signal(int) { g_stop = 1; }

bool write_file(const std::string& path, const std::string& body) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args("cnauditd", argc, argv, 1, {"oneshot", "serve"});
  if (!args.ok()) {
    std::fprintf(stderr, "cnauditd: bad argument '%s'\n", args.bad().c_str());
    return usage();
  }
  if (const auto bad = args.unknown({"input", "policy", "checkpoint", "checkpoint-every",
                                     "seal-every", "oneshot", "out", "serve", "http-port",
                                     "read-deadline-ms", "metrics-out"})) {
    std::fprintf(stderr, "cnauditd: unknown option --%s\n", bad->c_str());
    return usage();
  }
  const auto input = args.get("input");
  if (!input) {
    std::fprintf(stderr, "cnauditd: --input PATH is required\n");
    return usage();
  }
  const std::string policy_s = args.get_or("policy", "strict");
  if (policy_s != "strict" && policy_s != "lenient") {
    std::fprintf(stderr, "cnauditd: unknown --policy '%s'\n", policy_s.c_str());
    return usage();
  }
  const io::LoadPolicy policy =
      policy_s == "strict" ? io::LoadPolicy::kStrict : io::LoadPolicy::kLenient;
  daemon::DaemonConfig config;
  config.checkpoint_path = args.get_or("checkpoint", "");
  config.checkpoint_every_blocks = args.get_u64("checkpoint-every", 32);
  config.seal_every_blocks = args.get_u64("seal-every", 16);
  config.read_deadline_ms = static_cast<int>(
      args.get_u64("read-deadline-ms", 1000, std::numeric_limits<int>::max()));
  const auto port = static_cast<std::uint16_t>(args.get_u64("http-port", 0, 65535));

  testing::arm_crash_points_from_env();

  auto loaded = io::open_dataset(*input, policy);
  if (!loaded.report.clean()) {
    std::fprintf(stderr, "cnauditd: %s: %s\n", input->c_str(),
                 loaded.report.summary().c_str());
  }
  if (!loaded) {
    std::fprintf(stderr, "cnauditd: failed to load a data set from %s\n",
                 input->c_str());
    return 1;
  }
  const io::DatasetHandle& handle = *loaded.value;

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  io::ReplaySource replay(handle);
  core::FirstSeenFn first_seen;
  if (handle.first_seen.has_value()) {
    const io::FirstSeenMap* map = &*handle.first_seen;
    first_seen = [map](const btc::Txid& id) -> std::optional<SimTime> {
      const auto it = map->find(id);
      if (it == map->end()) return std::nullopt;
      return it->second;
    };
  }

  daemon::AuditDaemon daemon(replay, registry, first_seen, config);
  std::string recover_msg;
  daemon.recover(&recover_msg);
  std::fprintf(stderr, "cnauditd: %s (%llu events in feed)\n",
               recover_msg.c_str(),
               static_cast<unsigned long long>(replay.size()));

  const bool serve = args.has("serve");
  daemon::HttpServer http;
  if (serve) {
    std::string error;
    if (!http.start(port, [&daemon](const daemon::HttpRequest& r) {
          return daemon.handle(r);
        }, &error)) {
      std::fprintf(stderr, "cnauditd: http: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "cnauditd: serving on 127.0.0.1:%u\n", http.port());
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
  }

  daemon.run_to_end();

  int rc = 0;
  if (!daemon.healthy()) {
    std::fprintf(stderr, "cnauditd: fatal: %s\n", daemon.fatal_cause().c_str());
    rc = 1;
  }

  const std::string report = daemon.seal_report_json();
  const daemon::DaemonStats stats = daemon.stats();
  std::fprintf(stderr,
               "cnauditd: applied %llu events (%llu blocks, %llu snapshots), "
               "%llu checkpoints, %llu seals\n",
               static_cast<unsigned long long>(stats.events_applied),
               static_cast<unsigned long long>(stats.blocks_applied),
               static_cast<unsigned long long>(stats.snapshots_applied),
               static_cast<unsigned long long>(stats.checkpoints_written),
               static_cast<unsigned long long>(stats.seals));

  if (const auto out = args.get("out")) {
    if (!write_file(*out, report)) {
      std::fprintf(stderr, "cnauditd: could not write %s\n", out->c_str());
      rc = 1;
    }
  } else if (!serve) {
    std::fwrite(report.data(), 1, report.size(), stdout);
    std::fputc('\n', stdout);
  }

  if (serve) {
    std::fprintf(stderr, "cnauditd: feed drained; serving until SIGINT/SIGTERM\n");
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    http.stop();
  }

  if (const auto metrics = args.get("metrics-out")) {
    if (!obs::write_metrics_json(*metrics)) {
      std::fprintf(stderr, "cnauditd: could not write %s\n", metrics->c_str());
    }
  }
  return rc;
}
