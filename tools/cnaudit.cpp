// cnaudit — command-line front end to the chainneutrality library.
//
//   cnaudit simulate  --dataset A|B|C [--seed N] [--scale X]
//                     [--timeout-s S] --out DIR
//       Simulate a data set and export it (blocks/txs/inputs/outputs CSV
//       plus Mempool snapshots and the observer's first-seen log).
//
//   cnaudit audit      --input PATH [--alpha P] [--min-share F]
//       Load a data set and run the §5 cross-pool differential-
//       prioritization audit (Table 2 style), printing findings.
//
//   cnaudit report     --input PATH [--alpha P] [--threads N]
//                      [--min-coverage F] [--stages CSV] [--timings on|off]
//       The whole §4-§5 methodology in one shot (run_full_audit):
//       PPE, cross-pool findings with bootstrap CIs, dark-fee
//       suspicion, and the neutrality scorecard. When the data set
//       carries Mempool snapshots / first-seen series they are graded
//       into a data-quality report: blocks under --min-coverage are
//       masked from the norm statistics and findings resting on them
//       are downgraded to "insufficient data". --stages selects which
//       analysis stages run (comma-separated names from
//       audit_stage_names(); skipped stages print as [SKIPPED]);
//       --timings on appends the per-stage wall-time footer (off by
//       default so the output stays byte-reproducible run to run).
//
// Every data-loading subcommand takes --input PATH: either a CSV export
// directory or a CNB1 binary columnar file (io/cnb.hpp). The format is
// sniffed from the path; --format csv|cnb overrides the sniff. --data is
// the historical alias for --input. Every audit reads the columnar
// core::AuditDataset, built once per run; a CNB1 file that embeds the
// derived audit columns (cnconvert's default) is adopted instead, so no
// subcommand rebuilds it. All of them take --policy strict|lenient
// (default strict). Strict aborts at the first defective row or section
// and pinpoints it; lenient skips or repairs defects, prints a
// diagnostic summary, and still loads the data set.
//
// Observability (DESIGN.md §10): every subcommand accepts
//   --metrics-out PATH   write the cn::obs metric registry as JSON after
//                        the command finishes; the span timeline goes to
//                        PATH with ".json" replaced by ".trace.json"
//                        (Chrome trace format) unless --trace-out PATH
//                        overrides it.
//   --obs on|off         runtime switch (default on); off makes every
//                        metric/span a no-op and the exports empty.
// Options may be spelled "--key value" or "--key=value". An option the
// subcommand does not read is an error (exit 2), so a typo or a removed
// option cannot silently fall back to a default; so is a numeric value
// that does not parse whole (tools/args.hpp).
//
//   cnaudit neutrality --input PATH
//       Print the per-pool chain-neutrality scorecard (§6.1).
//
//   cnaudit ppe        --input PATH
//       Norm-adherence summary: PPE distribution over all blocks and the
//       top pools (Figure 7 style).
//
//   cnaudit darkfee    --input PATH [--pool NAME] [--sppe T]
//       Flag suspected dark-fee (accelerated) transactions by SPPE
//       (Table 4's detector; validation against a service API requires
//       the service, so only counts are reported). A --pool no block is
//       attributed to is an error (exit 2) that lists the attributed
//       pools.
//
// Every subcommand works on exported data, so audits can be re-run (or
// written by others, e.g. in Python against the same CSVs) without
// re-simulating.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/audit_dataset.hpp"
#include "core/audit_pipeline.hpp"
#include "core/darkfee.hpp"
#include "core/neutrality.hpp"
#include "core/ppe.hpp"
#include "core/prio_test.hpp"
#include "core/report.hpp"
#include "io/dataset_io.hpp"
#include "io/dataset_source.hpp"
#include "obs/export.hpp"
#include "obs/registry.hpp"
#include "sim/dataset.hpp"
#include "stats/descriptive.hpp"
#include "stats/ecdf.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

#include "args.hpp"

namespace {

using namespace cn;
using cli::Args;

int usage() {
  std::fprintf(stderr,
               "usage: cnaudit <simulate|audit|report|neutrality|ppe|darkfee> [--key value ...]\n"
               "  simulate   --dataset A|B|C [--seed N] [--scale X] [--timeout-s S]\n"
               "             --out DIR\n"
               "  audit      --input PATH [--alpha P] [--min-share F]\n"
               "  report     --input PATH [--alpha P] [--threads N] [--min-coverage F]\n"
               "             [--stages CSV] [--timings on|off]\n"
               "  neutrality --input PATH\n"
               "  ppe        --input PATH\n"
               "  darkfee    --input PATH [--pool NAME] [--sppe T]\n"
               "--input takes a CSV export directory or a .cnb file (sniffed;\n"
               "--format csv|cnb overrides, --data is a deprecated alias) and\n"
               "commands also take --policy strict|lenient (default strict)\n"
               "every command takes --metrics-out PATH [--trace-out PATH] [--obs on|off]\n");
  return 2;
}

std::optional<io::LoadPolicy> parse_policy(const Args& args) {
  const std::string s = args.get_or("policy", "strict");
  if (s == "strict") return io::LoadPolicy::kStrict;
  if (s == "lenient") return io::LoadPolicy::kLenient;
  std::fprintf(stderr, "cnaudit: unknown --policy '%s' (want strict|lenient)\n",
               s.c_str());
  return std::nullopt;
}

std::optional<io::DatasetHandle> load_dataset(const Args& args) {
  auto path = args.get("input");
  if (!path) path = args.get("data");  // historical alias for --input
  if (!path) {
    std::fprintf(stderr, "cnaudit: --input PATH is required\n");
    return std::nullopt;
  }
  const auto policy = parse_policy(args);
  if (!policy) return std::nullopt;
  std::optional<io::DatasetFormat> format;
  if (const auto f = args.get("format")) {
    format = io::parse_dataset_format(*f);
    if (!format) {
      std::fprintf(stderr, "cnaudit: unknown --format '%s' (want csv|cnb)\n",
                   f->c_str());
      return std::nullopt;
    }
  }
  auto result = io::open_dataset(*path, *policy, format);
  if (!result.report.clean()) {
    std::fprintf(stderr, "cnaudit: %s: %s\n", path->c_str(),
                 result.report.summary().c_str());
  }
  if (!result) {
    std::fprintf(stderr, "cnaudit: failed to load a data set from %s\n",
                 path->c_str());
    return std::nullopt;
  }
  std::printf("loaded %zu blocks, %llu transactions from %s\n\n",
              result->chain.size(),
              static_cast<unsigned long long>(result->chain.total_tx_count()),
              path->c_str());
  return std::move(result.value);
}

/// The loaded data set's columnar audit view under the paper's registry:
/// the one a CNB1 file stores, otherwise built here once and kept in the
/// handle.
const core::AuditDataset& audit_dataset(io::DatasetHandle& data) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  if (const core::AuditDataset* stored = data.prebuilt_for(registry)) return *stored;
  const core::PoolAttribution attribution(data.chain, registry);
  util::ThreadPool workers(0);
  data.audit_dataset = core::AuditDataset::build(data.chain, attribution, workers,
                                                 &data.addresses);
  data.registry_fingerprint = registry.fingerprint();
  return *data.audit_dataset;
}

int cmd_simulate(const Args& args) {
  const std::string kind_str = args.get_or("dataset", "C");
  sim::DatasetKind kind;
  if (kind_str == "A") {
    kind = sim::DatasetKind::kA;
  } else if (kind_str == "B") {
    kind = sim::DatasetKind::kB;
  } else if (kind_str == "C") {
    kind = sim::DatasetKind::kC;
  } else {
    std::fprintf(stderr, "cnaudit: unknown --dataset %s\n", kind_str.c_str());
    return 2;
  }
  const auto out = args.get("out");
  if (!out) {
    std::fprintf(stderr, "cnaudit: --out DIR is required\n");
    return 2;
  }
  const std::uint64_t seed = args.get_u64("seed", 42);
  const double scale = args.get_positive("scale", 0.5);
  // Wall-clock budget; 0 (default) = unlimited. An exceeded budget is a
  // typed failure with partial-progress diagnostics, not a silent hang.
  const double timeout_s = args.get_non_negative("timeout-s", 0.0);

  std::printf("simulating data set %s (seed %llu, scale %.2f)...\n",
              kind_str.c_str(), static_cast<unsigned long long>(seed), scale);
  sim::EngineConfig config = sim::dataset_config(kind, seed, scale);
  config.deadline_s = timeout_s;
  const sim::SimResult world = sim::Engine(config).run();
  if (world.timeout.timed_out) {
    std::fprintf(stderr, "cnaudit: simulate timeout: %s\n",
                 world.timeout.describe().c_str());
    return 3;
  }
  std::printf("  %zu blocks, %llu committed transactions\n", world.chain.size(),
              static_cast<unsigned long long>(world.chain.total_tx_count()));

  if (!io::export_chain(world.chain, *out) ||
      !io::export_snapshots(world.observer.snapshots(), *out + "/snapshots.csv") ||
      !io::export_first_seen(world.observer.first_seen_map(),
                             *out + "/first_seen.csv")) {
    std::fprintf(stderr, "cnaudit: export to %s failed\n", out->c_str());
    return 1;
  }
  std::printf("exported to %s (blocks/txs/inputs/outputs/snapshots/first_seen)\n",
              out->c_str());
  return 0;
}

int cmd_audit(const Args& args) {
  auto data = load_dataset(args);
  if (!data) return 1;
  const double alpha = args.get_double("alpha", 0.001);
  const double min_share = args.get_double("min-share", 0.03);
  const core::AuditDataset& ds = audit_dataset(*data);

  std::vector<core::PoolId> pools;
  for (const core::PoolId id : ds.pools_by_blocks()) {
    if (ds.hash_share(id) >= min_share) pools.push_back(id);
  }

  core::TablePrinter table({"txs of", "miner", "x", "y", "p-accel", "p-decel",
                            "SPPE", "verdict"},
                           {16, 16, 6, 6, 9, 9, 8, 12});
  table.print_header();
  int findings = 0;
  for (const core::PoolId owner : pools) {
    const auto txs = ds.self_interest_txs(owner);
    if (txs.size() < 10) continue;
    for (const core::PoolId miner : pools) {
      const auto r = core::test_differential_prioritization(ds, miner, txs);
      const bool accel = r.p_accelerate < alpha && r.sppe > 25.0;
      const bool decel = r.p_decelerate < alpha && r.x == 0;
      if (!accel && !decel) continue;
      ++findings;
      table.print_row({ds.pool_name(owner), r.pool, std::to_string(r.x),
                       std::to_string(r.y),
                       core::format_p_value(r.p_accelerate),
                       core::format_p_value(r.p_decelerate), fixed(r.sppe, 1),
                       accel ? (owner == miner ? "SELFISH" : "COLLUSION")
                             : "CENSORSHIP?"});
    }
  }
  std::printf("\n%d finding(s) at alpha=%.4g.\n", findings, alpha);
  return 0;
}

int cmd_report(const Args& args) {
  const std::string timings = args.get_or("timings", "off");
  if (timings != "on" && timings != "off") {
    std::fprintf(stderr, "cnaudit: unknown --timings '%s' (want on|off)\n",
                 timings.c_str());
    return 2;
  }
  const bool with_timings = timings == "on";

  const auto data = load_dataset(args);
  if (!data) return 1;
  const btc::Chain& chain = data->chain;
  core::AuditOptions options;
  options.alpha = args.get_double("alpha", 0.001);
  // Lanes for the dataset build's per-block pass: 0 = all hardware
  // threads, 1 = serial; the report is byte-identical at any setting
  // (DESIGN.md §7.2, §9).
  options.threads = static_cast<unsigned>(args.get_u64("threads", 0, cli::kMaxLanes));
  options.min_coverage = args.get_double("min-coverage", options.min_coverage);
  // The loader interned every address it touched; the build stage reuses
  // the table instead of re-hashing the address universe.
  options.interned_addresses = &data->addresses;
  // A data set that carries the observer's first-seen log also gets the
  // block-withholding stage (core/withholding.hpp).
  if (data->first_seen.has_value()) options.first_seen = &*data->first_seen;

  if (const auto stages = args.get("stages")) {
    const auto& known = core::audit_stage_names();
    for (const std::string_view name : split(*stages, ',')) {
      const std::string_view stage = trim(name);
      if (stage.empty()) continue;
      if (std::find(known.begin(), known.end(), stage) == known.end()) {
        std::string all;
        for (const std::string& k : known) {
          if (!all.empty()) all += ",";
          all += k;
        }
        std::fprintf(stderr, "cnaudit: unknown stage '%.*s' (known: %s)\n",
                     static_cast<int>(stage.size()), stage.data(), all.c_str());
        return 2;
      }
      options.stages.emplace_back(stage);
    }
  }

  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  // A CNB1 source that embeds derived audit columns built under this
  // registry lets the build stage adopt them instead of rebuilding.
  options.prebuilt_dataset = data->prebuilt_for(registry);

  // Grade coverage from whichever observer series the data set carries;
  // with neither present the audit keeps the historical perfect-coverage
  // behaviour.
  if (data->snapshots.has_value() || data->first_seen.has_value()) {
    const core::DataQualityReport quality = core::assess_data_quality(
        chain, data->snapshots.has_value() ? &*data->snapshots : nullptr,
        data->first_seen.has_value() ? &*data->first_seen : nullptr);
    const auto report = core::run_full_audit(chain, registry, &quality, options);
    core::print_audit_report(report, stdout, with_timings);
    return 0;
  }
  const auto report = core::run_full_audit(chain, registry, options);
  core::print_audit_report(report, stdout, with_timings);
  return 0;
}

int cmd_neutrality(const Args& args) {
  auto data = load_dataset(args);
  if (!data) return 1;
  const core::AuditDataset& ds = audit_dataset(*data);
  const auto reports = core::neutrality_reports(ds, {});

  core::TablePrinter table({"pool", "blocks", "PPE%", "boost%", "self-p",
                            "floor%", "score"},
                           {16, 9, 8, 9, 9, 9, 8});
  table.print_header();
  for (const auto& r : reports) {
    table.print_row({r.pool, with_commas(r.blocks), fixed(r.mean_ppe, 2),
                     fixed(r.boosted_tx_rate * 100.0, 3),
                     core::format_p_value(r.self_dealing_p),
                     fixed(r.below_floor_block_rate * 100.0, 1),
                     fixed(r.score, 1)});
  }
  return 0;
}

int cmd_ppe(const Args& args) {
  auto data = load_dataset(args);
  if (!data) return 1;
  const auto ppe = core::chain_ppe(audit_dataset(*data));
  const auto s = stats::summarize(ppe);
  const stats::Ecdf cdf{std::span<const double>(ppe)};
  core::print_summary_row("PPE (all)", s);
  if (!cdf.empty()) {
    std::printf("80%% of blocks below %.2f%%; share of blocks under 5%%: %s\n",
                cdf.quantile(0.8), percent(cdf.evaluate(5.0)).c_str());
  }
  return 0;
}

int cmd_darkfee(const Args& args) {
  auto data = load_dataset(args);
  if (!data) return 1;
  const double threshold = args.get_double("sppe", 99.0);
  const core::AuditDataset& ds = audit_dataset(*data);

  std::vector<core::PoolId> pools;
  if (const auto pool = args.get("pool")) {
    const core::PoolId id = ds.pool_id(*pool);
    if (id == core::kNoPoolId) {
      std::string attributed;
      for (const core::PoolId p : ds.pools_by_blocks()) {
        if (!attributed.empty()) attributed += ",";
        attributed += ds.pool_name(p);
      }
      std::fprintf(stderr,
                   "cnaudit: no block is attributed to pool '%s' (attributed: %s)\n",
                   pool->c_str(), attributed.c_str());
      return 2;
    }
    pools.push_back(id);
  } else {
    for (const core::PoolId id : ds.pools_by_blocks()) {
      if (ds.blocks_of(id) >= 10) pools.push_back(id);
    }
  }
  core::TablePrinter table({"pool", "txs", "flagged", "rate"}, {16, 11, 9, 10});
  table.print_header();
  for (const core::PoolId pool : pools) {
    const std::uint64_t flagged = core::count_accelerated(ds, pool, threshold);
    const std::uint64_t txs = ds.pool_tx_count(pool);
    if (txs == 0) continue;
    table.print_row({ds.pool_name(pool), with_commas(txs), with_commas(flagged),
                     percent(static_cast<double>(flagged) / static_cast<double>(txs),
                             3)});
  }
  std::printf("\nflagged = committed transactions with SPPE >= %.1f (placed far\n"
              "above their public fee rank). Validate against an acceleration\n"
              "service's public query where one exists (paper §5.4.2).\n",
              threshold);
  return 0;
}

std::string default_trace_path(const std::string& metrics_path) {
  std::string base = metrics_path;
  if (base.size() >= 5 && base.compare(base.size() - 5, 5, ".json") == 0) {
    base.resize(base.size() - 5);
  }
  return base + ".trace.json";
}

/// Writes metrics.json (+ trace) after the subcommand ran, so the export
/// covers everything the command did. Returns false on I/O failure.
bool export_observability(const Args& args) {
  const auto metrics_path = args.get("metrics-out");
  if (!metrics_path) return true;
  const std::string trace_path =
      args.get_or("trace-out", default_trace_path(*metrics_path));
  bool ok = true;
  if (!obs::write_metrics_json(*metrics_path)) {
    std::fprintf(stderr, "cnaudit: could not write %s\n", metrics_path->c_str());
    ok = false;
  }
  if (!obs::write_trace_json(trace_path)) {
    std::fprintf(stderr, "cnaudit: could not write %s\n", trace_path.c_str());
    ok = false;
  }
  return ok;
}

struct Command {
  std::string_view name;
  int (*run)(const Args&);
  bool loads_data;  ///< reads load_dataset's options
  std::vector<std::string_view> options;  ///< the rest it reads
};

const Command* find_command(std::string_view name) {
  static const std::vector<Command> commands = {
      {"simulate", cmd_simulate, false, {"dataset", "seed", "scale", "timeout-s", "out"}},
      {"audit", cmd_audit, true, {"alpha", "min-share"}},
      {"report", cmd_report, true,
       {"alpha", "threads", "min-coverage", "stages", "timings"}},
      {"neutrality", cmd_neutrality, true, {}},
      {"ppe", cmd_ppe, true, {}},
      {"darkfee", cmd_darkfee, true, {"pool", "sppe"}},
  };
  for (const Command& c : commands) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

bool takes_option(const Command& command, std::string_view key) {
  static const std::vector<std::string_view> global = {"metrics-out", "trace-out", "obs"};
  static const std::vector<std::string_view> loading = {"input", "data", "format", "policy"};
  const auto listed = [key](const std::vector<std::string_view>& keys) {
    return std::find(keys.begin(), keys.end(), key) != keys.end();
  };
  return listed(command.options) || listed(global) ||
         (command.loads_data && listed(loading));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Command* cmd = find_command(command);
  if (cmd == nullptr) {
    std::fprintf(stderr, "cnaudit: unknown command '%s'\n", command.c_str());
    return usage();
  }
  const Args args("cnaudit", argc, argv, 2);
  if (!args.ok()) {
    std::fprintf(stderr, "cnaudit: bad argument '%s'\n", args.bad().c_str());
    return usage();
  }
  for (const auto& [key, value] : args.values()) {
    if (!takes_option(*cmd, key)) {
      std::fprintf(stderr, "cnaudit: %s does not take --%s\n", command.c_str(),
                   key.c_str());
      return usage();
    }
  }
  const std::string obs_switch = args.get_or("obs", "on");
  if (obs_switch != "on" && obs_switch != "off") {
    std::fprintf(stderr, "cnaudit: unknown --obs '%s' (want on|off)\n",
                 obs_switch.c_str());
    return 2;
  }
  obs::set_enabled(obs_switch == "on");

  const int rc = cmd->run(args);
  if (!export_observability(args) && rc == 0) return 1;
  return rc;
}
