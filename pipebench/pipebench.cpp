// Pipeline benchmark harness (see BENCHMARK.md in this directory).
//
//   pipebench setup --workload W --seed N --scale S --dir D
//   pipebench job   --workload W --dir D --trace 0|1 [--trace-out PATH]
//
// run.py drives it: every set-up and every job is its own process, so a
// job's peak RSS is the job's alone, never the high-water mark a
// set-up's simulation left behind or an earlier repetition's heap. Each
// command prints one JSON object as its last stdout line; diagnostics go
// to stderr.
//
// Workloads (data set C, baseline scenario):
//   simulate    sim::Engine run -> CNB1 write -> strict CNB1 read-back
//   audit       CNB1 load -> data quality -> run_full_audit -> render
//   ingest-csv  CSV export load -> data quality -> run_full_audit -> render
//   daemon      AuditDaemon::run_to_end + final seal, with an open-loop
//               GET /report client on the daemon's HttpServer
//
// Tracing (--trace 1) records spans around each call into a library
// layer and reads the counters the library exports through
// cn::obs::snapshot(); untraced jobs run the same calls without either.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "btc/coinbase_tags.hpp"
#include "core/audit_pipeline.hpp"
#include "core/data_quality.hpp"
#include "daemon/accumulators.hpp"
#include "daemon/daemon.hpp"
#include "daemon/http.hpp"
#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "io/dataset_source.hpp"
#include "io/stream_source.hpp"
#include "obs/registry.hpp"
#include "sim/engine.hpp"
#include "sim/world_spec.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace {

using namespace cn;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kWorldFile = "world.cnb";
constexpr const char* kCsvDir = "csv";
constexpr const char* kManifest = "manifest.txt";

// cnauditd defaults (tools/cnauditd.cpp): synchronous, seal every 16
// blocks, checkpoint every 32.
constexpr std::uint64_t kSealEvery = 16;
constexpr std::uint64_t kCheckpointEvery = 32;
/// Open-loop GET /report rate against the daemon, one connection at a time.
constexpr double kQueriesPerSecond = 500.0;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void die(const std::string& message) {
  std::fprintf(stderr, "pipebench: %s\n", message.c_str());
  std::exit(2);
}

// --- small helpers ------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 100]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx =
      static_cast<std::size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size()))) - 1;
  return v[idx];
}

std::string sha256_hex(std::string_view bytes) { return hex_encode(sha256(bytes)); }

std::string sha256_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  Sha256 hasher;
  std::vector<char> buf(1 << 20);
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const std::streamsize got = in.gcount();
    if (got <= 0) break;
    hasher.update(std::string_view(buf.data(), static_cast<std::size_t>(got)));
  }
  return hex_encode(hasher.finalize());
}

std::uint64_t tree_bytes(const std::string& path) {
  std::error_code ec;
  if (fs::is_regular_file(path, ec)) return fs::file_size(path, ec);
  std::uint64_t total = 0;
  for (const auto& entry : fs::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) total += entry.file_size(ec);
  }
  return total;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// "tmpfs" when @p path lives on a tmpfs mount, else "disk".
std::string filesystem_kind(const std::string& path) {
  struct statfs info {};
  constexpr long kTmpfsMagic = 0x01021994;
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  return static_cast<long>(info.f_type) == kTmpfsMagic ? "tmpfs" : "disk";
}

unsigned audit_threads() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

// --- JSON output ----------------------------------------------------------

std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Insertion-ordered JSON object (values are pre-encoded).
class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) { return raw(key, json_number(v)); }
  JsonObject& str(const std::string& key, std::string_view v) {
    return raw(key, json_string(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& strings(const std::string& key, const std::vector<std::string>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_string(v[i]);
    }
    return raw(key, out + "]");
  }
  JsonObject& raw(const std::string& key, std::string encoded) {
    fields_.emplace_back(key, std::move(encoded));
    return *this;
  }
  std::string dump() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "" : ", ") + json_string(fields_[i].first) + ": " +
             fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// --- manifest: what set-up hands the job ------------------------------------

using Manifest = std::map<std::string, std::string>;

void write_manifest(const std::string& dir, const Manifest& manifest) {
  std::ofstream out(dir + "/" + kManifest);
  for (const auto& [k, v] : manifest) out << k << ' ' << v << '\n';
  if (!out) die("cannot write manifest in " + dir);
}

Manifest read_manifest(const std::string& dir) {
  std::ifstream in(dir + "/" + kManifest);
  if (!in) die("no manifest in " + dir + " (run set-up first)");
  Manifest manifest;
  std::string key, value;
  while (in >> key >> value) manifest[key] = value;
  return manifest;
}

const std::string& need(const Manifest& m, const std::string& key) {
  const auto it = m.find(key);
  if (it == m.end()) die("manifest lacks '" + key + "'");
  return it->second;
}

sim::WorldSpec spec_from(const Manifest& m) {
  return sim::baseline_spec(sim::DatasetKind::kC,
                            std::strtoull(need(m, "seed").c_str(), nullptr, 10),
                            std::strtod(need(m, "scale").c_str(), nullptr));
}

// --- tracing ------------------------------------------------------------------

/// In-memory span recorder for the benchmark's own layer boundaries, for
/// the one job a process runs. Disabled, every call is a branch; spans
/// are written out only at exit.
class Tracer {
 public:
  Tracer(Clock::time_point origin, bool on) : origin_(origin), on_(on) {}

  bool enabled() const { return on_; }

  class Span {
   public:
    Span(Tracer& tracer, const char* name) : tracer_(tracer), idx_(tracer.open(name)) {}
    ~Span() { tracer_.close(idx_); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    int idx_;
  };

  /// Total seconds of spans named @p name.
  double total(std::string_view name) const {
    double sum = 0.0;
    for (const Record& r : records_) {
      if (r.name == name) sum += r.end - r.start;
    }
    return sum;
  }

  /// Seconds covered by the direct children of root spans.
  double child_total() const {
    double sum = 0.0;
    for (const Record& r : records_) {
      if (r.parent >= 0 && records_[static_cast<std::size_t>(r.parent)].parent < 0) {
        sum += r.end - r.start;
      }
    }
    return sum;
  }

  void write(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"spans\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "\n  " : ",\n  ")
          << JsonObject()
                 .num("id", static_cast<double>(i))
                 .num("parent", r.parent)
                 .str("name", r.name)
                 .num("start_s", r.start)
                 .num("end_s", r.end)
                 .dump();
    }
    out << "\n]}\n";
  }

 private:
  struct Record {
    std::string name;
    int parent = -1;
    double start = 0.0;
    double end = 0.0;
  };

  int open(const char* name) {
    if (!on_) return -1;
    records_.push_back({name, current_, seconds_between(origin_, Clock::now()), 0.0});
    current_ = static_cast<int>(records_.size()) - 1;
    return current_;
  }
  void close(int idx) {
    if (idx < 0) return;
    Record& r = records_[static_cast<std::size_t>(idx)];
    r.end = seconds_between(origin_, Clock::now());
    current_ = r.parent;
  }

  Clock::time_point origin_;
  bool on_ = false;
  int current_ = -1;
  std::vector<Record> records_;
};

/// Counter totals (and gauge levels) from the library's obs registry.
std::map<std::string, double> obs_values() {
  std::map<std::string, double> out;
  for (const obs::MetricValue& m : obs::snapshot()) {
    out[m.name] = m.kind == obs::MetricKind::kHistogram ? static_cast<double>(m.count) : m.value;
  }
  return out;
}

double value_or_zero(const std::map<std::string, double>& m, const std::string& key) {
  const auto it = m.find(key);
  return it == m.end() ? 0.0 : it->second;
}

using Layers = std::map<std::string, double>;

/// Adds the change of each named counter between two snapshots.
void add_counter_deltas(Layers& layers, const std::map<std::string, double>& before,
                        const std::map<std::string, double>& after,
                        const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    layers[name] = value_or_zero(after, name) - value_or_zero(before, name);
  }
}

// --- world generation and the audit path --------------------------------------

/// Mempool transactions queued at each block (last snapshot at or before
/// it), summed over the chain: the congestion that sets the simulator's
/// template-building cost. run.py's world list is chosen on it.
std::uint64_t queued_at_blocks(const btc::Chain& chain, const node::SnapshotSeries& series) {
  const auto stats = series.stats();
  std::uint64_t sum = 0;
  std::size_t i = 0;
  for (const btc::Block& block : chain.blocks()) {
    while (i < stats.size() && stats[i].time <= block.mined_at()) ++i;
    if (i > 0) sum += stats[i - 1].tx_count;
  }
  return sum;
}

bool write_world(const sim::SimResult& result, const sim::WorldSpec& spec,
                 const std::string& path, std::string* error) {
  io::SimWorldInfo truth;
  truth.spec_fingerprint = spec.fingerprint();
  truth.scam_address = result.scam_address;
  truth.accelerated_txids = result.acceleration.all_accelerated_sorted();
  io::CnbWriteOptions options;
  options.snapshots = &result.observer.snapshots();
  options.first_seen = &result.observer.first_seen_map();
  options.world = &truth;
  return io::write_cnb(result.chain, path, options, error);
}

std::string render(const core::AuditReport& report) {
  char* buf = nullptr;
  std::size_t size = 0;
  std::FILE* mem = open_memstream(&buf, &size);
  if (mem == nullptr) die("open_memstream failed");
  core::print_audit_report(report, mem);
  std::fclose(mem);
  std::string out(buf, size);
  std::free(buf);
  return out;
}

core::AuditOptions audit_options(btc::Address scam, const io::FirstSeenMap* first_seen,
                                 const btc::AddressTable* addresses) {
  core::AuditOptions options;
  options.watch_addresses.push_back(scam);
  options.first_seen = first_seen;
  options.interned_addresses = addresses;
  options.threads = audit_threads();
  return options;
}

/// quality -> audit -> render over an in-memory data set.
struct AuditOutput {
  std::string rendered;
  std::vector<core::AuditStage> stages;
};

AuditOutput audit_and_render(Tracer& tracer, const btc::Chain& chain,
                             const node::SnapshotSeries* snapshots,
                             const io::FirstSeenMap* first_seen,
                             const btc::AddressTable* addresses, btc::Address scam) {
  static const btc::CoinbaseTagRegistry registry =
      btc::CoinbaseTagRegistry::paper_registry();
  std::optional<core::DataQualityReport> quality;
  {
    const Tracer::Span span(tracer, "core.quality");
    quality = core::assess_data_quality(chain, snapshots, first_seen);
  }
  std::optional<core::AuditReport> report;
  {
    const Tracer::Span span(tracer, "core.audit");
    report = core::run_full_audit(chain, registry, &*quality,
                                  audit_options(scam, first_seen, addresses));
  }
  AuditOutput out;
  {
    const Tracer::Span span(tracer, "core.render");
    out.rendered = render(*report);
  }
  out.stages = report->stages;
  return out;
}

// --- set-up -----------------------------------------------------------------------

int cmd_setup(const std::string& workload, std::uint64_t seed, double scale,
              const std::string& dir) {
  const auto start = Clock::now();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  if (ec) die("cannot create " + dir + ": " + ec.message());

  const sim::WorldSpec spec = sim::baseline_spec(sim::DatasetKind::kC, seed, scale);
  Manifest manifest;
  manifest["workload"] = workload;
  manifest["seed"] = std::to_string(seed);
  char scale_text[32];
  std::snprintf(scale_text, sizeof scale_text, "%.17g", scale);
  manifest["scale"] = scale_text;
  char fingerprint[32];
  std::snprintf(fingerprint, sizeof fingerprint, "%016llx",
                static_cast<unsigned long long>(spec.fingerprint()));
  manifest["fingerprint"] = fingerprint;

  if (workload != "simulate") {
    // Inputs for the load-side workloads: the world as WorldCache would
    // store it (CNB1 without derived audit columns), generated fresh in
    // this private directory — never served from a shared cache.
    sim::SimResult result = sim::Engine(spec.config()).run();
    const std::string world_path = dir + "/" + kWorldFile;
    std::string error;
    if (!write_world(result, spec, world_path, &error)) die("write_cnb: " + error);
    manifest["blocks"] = std::to_string(result.chain.size());
    manifest["txs"] = std::to_string(result.chain.total_tx_count());
    manifest["scam"] = std::to_string(result.scam_address.value);
    manifest["cnb_bytes"] = std::to_string(tree_bytes(world_path));
    manifest["queued_at_blocks"] =
        std::to_string(queued_at_blocks(result.chain, result.observer.snapshots()));
    Tracer off(start, false);

    if (workload == "audit") {
      // Reference: the audit of the in-memory world, before any persist
      // or load — the job's CNB1-loaded report must match it byte for byte.
      const AuditOutput ref =
          audit_and_render(off, result.chain, &result.observer.snapshots(),
                           &result.observer.first_seen_map(), nullptr, result.scam_address);
      manifest["report_sha256"] = sha256_hex(ref.rendered);
    } else if (workload == "ingest-csv") {
      const std::string csv = dir + "/" + kCsvDir;
      if (!io::export_chain(result.chain, csv, &error) ||
          !io::export_snapshots(result.observer.snapshots(), csv + "/snapshots.csv", &error) ||
          !io::export_first_seen(result.observer.first_seen_map(),
                                 csv + "/first_seen.csv", &error)) {
        die("CSV export: " + error);
      }
      manifest["csv_bytes"] = std::to_string(tree_bytes(csv));
      // Reference: the CNB1-sourced report of the same world.
      auto loaded = io::open_dataset(world_path, io::LoadPolicy::kStrict,
                                     io::DatasetFormat::kCnb);
      if (!loaded) die("strict CNB1 load of the fresh world failed");
      const AuditOutput ref = audit_and_render(
          off, loaded->chain, &*loaded->snapshots, &*loaded->first_seen,
          &loaded->addresses, result.scam_address);
      manifest["report_sha256"] = sha256_hex(ref.rendered);
    } else if (workload == "daemon") {
      // Reference: a plain AuditAccumulators fold over the same feed,
      // replayed from the in-memory world.
      io::DatasetHandle handle;
      handle.chain = std::move(result.chain);
      handle.snapshots = result.observer.snapshots();
      const node::ObserverNode& observer = result.observer;
      const core::FirstSeenFn first_seen = [&observer](const btc::Txid& id) {
        return observer.first_seen(id);
      };
      const auto registry = btc::CoinbaseTagRegistry::paper_registry();
      daemon::AuditAccumulators acc(registry, daemon::DaemonConfig{}.accumulators);
      io::ReplaySource source(handle);
      io::StreamEvent ev;
      while (source.next(ev, 1000) == io::StreamStatus::kOk) {
        if (ev.kind == io::StreamEvent::Kind::kBlock) {
          acc.apply_block(*ev.block, first_seen, ev.seq);
        } else {
          acc.apply_snapshot(ev.snapshot, ev.seq);
        }
      }
      manifest["daemon_sha256"] =
          sha256_hex(daemon::AuditAccumulators::to_json(acc.seal()));
      manifest["feed_events"] = std::to_string(source.size());
    } else {
      die("unknown workload '" + workload + "'");
    }
  }
  write_manifest(dir, manifest);
  const double setup_s = seconds_between(start, Clock::now());

  JsonObject out;
  out.num("setup_s", setup_s);
  for (const auto& [k, v] : manifest) out.str(k, v);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

// --- jobs -------------------------------------------------------------------------

/// What one job reports back to run.py.
struct JobResult {
  double seconds = 0.0;
  bool ok = true;
  std::vector<std::string> errors;
  std::uint64_t queries = 0;         ///< daemon: /report requests attempted
  std::uint64_t failed_queries = 0;  ///< daemon: refused / malformed / non-200
  Layers layers;                     ///< traced jobs, plus the daemon's serving metrics
  std::map<std::string, std::string> digests;  ///< output kind -> SHA-256
};

struct JobContext {
  std::string dir;
  Manifest manifest;  ///< set-up's, plus what the job learns (provenance)
  Tracer* tracer = nullptr;
};

void fail(JobResult& r, std::string message) {
  r.ok = false;
  std::fprintf(stderr, "pipebench: check failed: %s\n", message.c_str());
  r.errors.push_back(std::move(message));
}

void add_stage_layers(Layers& layers, const std::vector<core::AuditStage>& stages) {
  for (const core::AuditStage& s : stages) layers["core.stage." + s.name + "_s"] = s.seconds;
}

const std::vector<std::string>& counter_names() {
  static const std::vector<std::string> names = {
      "sim.engine.events",        "sim.engine.cpfp_decisions",
      "sim.engine.rbf_decisions", "node.mempool.accepted",
      "node.mempool.replaced",    "node.mempool.evicted",
      "io.ingest.rows_read",      "util.thread_pool.tasks_submitted",
      "util.thread_pool.idle_ns", "daemon.http.requests"};
  return names;
}

JobResult job_simulate(JobContext& ctx) {
  Tracer& tracer = *ctx.tracer;
  JobResult r;
  const sim::WorldSpec spec = spec_from(ctx.manifest);
  const std::string path = ctx.dir + "/job.cnb";
  const auto start = Clock::now();
  std::optional<sim::SimResult> result;
  std::optional<io::LoadResult<io::DatasetHandle>> loaded;
  {
    const Tracer::Span job(tracer, "job");
    {
      const Tracer::Span span(tracer, "sim.run");
      result = sim::Engine(spec.config()).run();
    }
    std::string error;
    bool written = false;
    {
      const Tracer::Span span(tracer, "io.cnb_write");
      written = write_world(*result, spec, path, &error);
    }
    if (!written) fail(r, "write_cnb: " + error);
    {
      const Tracer::Span span(tracer, "io.cnb_verify");
      loaded = io::open_dataset(path, io::LoadPolicy::kStrict, io::DatasetFormat::kCnb);
    }
  }
  r.seconds = seconds_between(start, Clock::now());

  if (result->timeout.timed_out) fail(r, "simulation timed out");
  if (!loaded->has_value()) {
    fail(r, "strict read-back of the written world failed");
  } else {
    const io::DatasetHandle& h = **loaded;
    if (h.chain.size() != result->chain.size()) fail(r, "read-back block count differs");
    if (h.chain.total_tx_count() != result->chain.total_tx_count()) {
      fail(r, "read-back tx count differs");
    }
    if (!h.snapshots || h.snapshots->size() != result->observer.snapshots().size()) {
      fail(r, "read-back snapshot series differs");
    }
    if (!h.first_seen || h.first_seen->size() != result->observer.first_seen_map().size()) {
      fail(r, "read-back first-seen log differs");
    }
    if (!h.sim_world || h.sim_world->spec_fingerprint != spec.fingerprint()) {
      fail(r, "read-back world fingerprint differs");
    }
  }
  ctx.manifest["blocks"] = std::to_string(result->chain.size());
  ctx.manifest["txs"] = std::to_string(result->chain.total_tx_count());
  ctx.manifest["cnb_bytes"] = std::to_string(tree_bytes(path));
  ctx.manifest["queued_at_blocks"] =
      std::to_string(queued_at_blocks(result->chain, result->observer.snapshots()));
  r.digests["world"] = sha256_file(path);
  std::error_code ec;
  fs::remove(path, ec);
  if (tracer.enabled()) {
    r.layers["sim.run_s"] = tracer.total("sim.run");
    r.layers["io.cnb_write_s"] = tracer.total("io.cnb_write");
    r.layers["io.cnb_verify_s"] = tracer.total("io.cnb_verify");
    r.layers["bench.dominant_layer_frac"] = r.layers["sim.run_s"] / r.seconds;
  }
  return r;
}

JobResult job_audit(JobContext& ctx, bool csv) {
  Tracer& tracer = *ctx.tracer;
  JobResult r;
  const std::string path = ctx.dir + "/" + (csv ? kCsvDir : kWorldFile);
  const btc::Address scam{std::strtoull(need(ctx.manifest, "scam").c_str(), nullptr, 10)};
  // Declared outside the timed scope: the result is ready once rendered,
  // and tearing the data set down is not part of producing it.
  std::optional<io::LoadResult<io::DatasetHandle>> loaded;
  std::optional<AuditOutput> out;
  const auto start = Clock::now();
  {
    const Tracer::Span job(tracer, "job");
    {
      const Tracer::Span span(tracer, csv ? "io.csv_load" : "io.cnb_load");
      loaded = io::open_dataset(path, io::LoadPolicy::kStrict,
                                csv ? io::DatasetFormat::kCsv : io::DatasetFormat::kCnb);
    }
    if (!loaded->has_value() || !(*loaded)->snapshots || !(*loaded)->first_seen) {
      fail(r, "strict load of " + path + " failed: " + loaded->report.summary());
      r.seconds = seconds_between(start, Clock::now());
      return r;
    }
    const io::DatasetHandle& h = **loaded;
    out = audit_and_render(tracer, h.chain, &*h.snapshots, &*h.first_seen, &h.addresses,
                           scam);
  }
  r.seconds = seconds_between(start, Clock::now());

  const std::string digest = sha256_hex(out->rendered);
  if (digest != need(ctx.manifest, "report_sha256")) {
    fail(r, csv ? "CSV-sourced report differs from the CNB1-sourced one"
                : "CNB1-loaded report differs from the in-memory audit");
  }
  r.digests["report"] = digest;
  if (tracer.enabled()) {
    const char* load = csv ? "io.csv_load_s" : "io.cnb_load_s";
    r.layers[load] = tracer.total(csv ? "io.csv_load" : "io.cnb_load");
    r.layers["core.quality_s"] = tracer.total("core.quality");
    r.layers["core.audit_s"] = tracer.total("core.audit");
    r.layers["core.render_s"] = tracer.total("core.render");
    add_stage_layers(r.layers, out->stages);
    // Predicted dominant layer: the load (CSV parsing / CNB1 read).
    r.layers["bench.dominant_layer_frac"] = r.layers[load] / r.seconds;
  }
  return r;
}

// --- daemon workload ------------------------------------------------------------------

/// Bench-owned feed wrapper: timestamps every pull, so per-event daemon
/// work is timed from outside as the gap between successive pulls.
class TimedSource : public io::StreamSource {
 public:
  struct Pull {
    std::uint64_t seq = 0;
    bool block = false;
    std::uint64_t blocks = 0;  ///< blocks pulled so far, this one included
    double returned = 0.0;     ///< when next() handed the event over
    double next_call = NAN;    ///< when the daemon came back for more
  };

  TimedSource(io::StreamSource& inner, Clock::time_point origin)
      : inner_(inner), origin_(origin) {}

  io::StreamStatus next(io::StreamEvent& out, int deadline_ms) override {
    const double now = seconds_between(origin_, Clock::now());
    if (!pulls_.empty() && std::isnan(pulls_.back().next_call)) pulls_.back().next_call = now;
    // The daemon seals inside the apply of every kSealEvery-th block and
    // only then pulls again: once it is back here, the first seal is done.
    if (blocks_ >= kSealEvery) first_seal_done_.store(true, std::memory_order_release);
    const io::StreamStatus status = inner_.next(out, deadline_ms);
    if (status == io::StreamStatus::kOk) {
      const bool block = out.kind == io::StreamEvent::Kind::kBlock;
      if (block) ++blocks_;
      pulls_.push_back({out.seq, block, blocks_, seconds_between(origin_, Clock::now()), NAN});
    }
    return status;
  }
  bool seek(std::uint64_t seq) override { return inner_.seek(seq); }
  std::uint64_t size() const override { return inner_.size(); }

  bool first_seal_done() const { return first_seal_done_.load(std::memory_order_acquire); }
  const std::vector<Pull>& pulls() const { return pulls_; }

 private:
  io::StreamSource& inner_;
  Clock::time_point origin_;
  std::uint64_t blocks_ = 0;
  std::vector<Pull> pulls_;
  std::atomic<bool> first_seal_done_{false};
};

struct HttpResult {
  bool ok = false;  ///< a well-formed response arrived
  int status = 0;
  std::uint64_t version = 0;
  std::string body;
};

HttpResult http_get(std::uint16_t port, const char* target) {
  HttpResult result;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  timeval tv{};
  tv.tv_sec = 5;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  std::string raw;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string request = std::string("GET ") + target +
                                " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[16384];
      while (true) {
        const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) break;
        raw.append(buf, static_cast<std::size_t>(got));
      }
    }
  }
  ::close(fd);

  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos || raw.rfind("HTTP/1.1 ", 0) != 0) return result;
  result.status = std::atoi(raw.c_str() + 9);
  const std::string head = raw.substr(0, head_end + 2);
  result.body = raw.substr(head_end + 4);
  const auto header = [&head](const char* name) -> std::optional<std::string> {
    const std::string key = std::string("\r\n") + name + ": ";
    const std::size_t at = head.find(key);
    if (at == std::string::npos) return std::nullopt;
    const std::size_t from = at + key.size();
    return head.substr(from, head.find("\r\n", from) - from);
  };
  const auto length = header("Content-Length");
  if (!length || std::strtoull(length->c_str(), nullptr, 10) != result.body.size()) {
    return result;
  }
  if (const auto version = header("X-CN-Report-Version")) {
    result.version = std::strtoull(version->c_str(), nullptr, 10);
  } else if (result.status == 200) {
    return result;  // a served report must say which version it is
  }
  result.ok = true;
  return result;
}

struct Query {
  double due = 0.0;
  double sent = 0.0;
  double received = 0.0;
  bool ok = false;
  std::uint64_t version = 0;
};

/// Open-loop /report client: one connection at a time, requests due at a
/// fixed rate from the first seal on, each timed from when it was due.
/// Stops once a response covers @p final_version (set after the job's
/// final seal), or when @p abort is raised.
void query_loop(std::uint16_t port, Clock::time_point origin, const TimedSource& feed,
                const std::atomic<std::uint64_t>& final_version,
                const std::atomic<bool>& abort, std::vector<Query>& queries,
                std::string& final_body) {
  while (!feed.first_seal_done() && !abort.load()) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  const auto period = std::chrono::duration<double>(1.0 / kQueriesPerSecond);
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; !abort.load(); ++i) {
    const auto due = t0 + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
    std::this_thread::sleep_until(due);
    Query q;
    q.due = seconds_between(origin, due);
    q.sent = seconds_between(origin, Clock::now());
    const std::uint64_t want = final_version.load();
    HttpResult resp = http_get(port, "/report");
    q.received = seconds_between(origin, Clock::now());
    q.ok = resp.ok && resp.status == 200;
    q.version = q.ok ? resp.version : 0;
    queries.push_back(q);
    if (want != 0 && q.ok && q.version >= want) {
      final_body = std::move(resp.body);
      return;
    }
  }
}

JobResult job_daemon(JobContext& ctx, const io::DatasetHandle& handle) {
  Tracer& tracer = *ctx.tracer;
  JobResult r;
  static const btc::CoinbaseTagRegistry registry =
      btc::CoinbaseTagRegistry::paper_registry();
  const io::FirstSeenMap* map = &*handle.first_seen;
  const core::FirstSeenFn first_seen = [map](const btc::Txid& id) -> std::optional<SimTime> {
    const auto it = map->find(id);
    if (it == map->end()) return std::nullopt;
    return it->second;
  };

  const std::string checkpoint = ctx.dir + "/daemon.ckpt";
  std::error_code ec;
  fs::remove(checkpoint, ec);
  daemon::DaemonConfig config;
  config.checkpoint_path = checkpoint;
  config.seal_every_blocks = kSealEvery;
  config.checkpoint_every_blocks = kCheckpointEvery;
  config.threads = 1;

  const auto origin = Clock::now();
  io::ReplaySource replay(handle);
  TimedSource feed(replay, origin);
  daemon::AuditDaemon audit_daemon(feed, registry, first_seen, config);
  daemon::HttpServer http;
  std::string error;
  if (!http.start(0, [&audit_daemon](const daemon::HttpRequest& req) {
        return audit_daemon.handle(req);
      }, &error)) {
    fail(r, "http: " + error);
    return r;
  }

  std::atomic<std::uint64_t> final_version{0};
  std::atomic<bool> abort{false};
  std::atomic<bool> client_done{false};
  std::vector<Query> queries;
  std::string served_body;
  std::thread client([&] {
    query_loop(http.port(), origin, feed, final_version, abort, queries, served_body);
    client_done.store(true);
  });

  const auto start = Clock::now();
  io::StreamStatus status = io::StreamStatus::kEnd;
  std::string sealed;
  {
    const Tracer::Span job(tracer, "job");
    {
      const Tracer::Span span(tracer, "daemon.run_to_end");
      status = audit_daemon.run_to_end();
    }
    {
      const Tracer::Span span(tracer, "daemon.final_seal");
      sealed = audit_daemon.seal_report_json();
    }
  }
  const auto end = Clock::now();
  r.seconds = seconds_between(start, end);
  final_version.store(std::max<std::uint64_t>(1, audit_daemon.accumulators().last_seq()));

  // Give the client a bounded time to observe the final version.
  while (!client_done.load() && seconds_between(end, Clock::now()) < 10.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  abort.store(true);
  client.join();

  if (status != io::StreamStatus::kEnd || !audit_daemon.healthy()) {
    fail(r, std::string("daemon replay ended with ") + io::to_string(status));
  }
  const std::string digest = sha256_hex(sealed);
  if (digest != need(ctx.manifest, "daemon_sha256")) {
    fail(r, "daemon final body differs from the reference accumulator fold");
  }
  if (served_body != sealed) fail(r, "the served /report body differs from the final seal");
  r.digests["daemon"] = digest;

  // --- queries: latency from due time, generator lag, failures ---
  std::vector<double> latency_us, lag_ms;
  for (const Query& q : queries) {
    ++r.queries;
    if (!q.ok) ++r.failed_queries;
    latency_us.push_back((q.received - q.due) * 1e6);
    lag_ms.push_back((q.sent - q.due) * 1e3);
  }
  if (queries.empty()) fail(r, "no /report query completed");

  // --- freshness: block pull -> first served report covering it ---
  const std::vector<TimedSource::Pull>& pulls = feed.pulls();
  std::vector<double> freshness_ms;
  std::size_t qi = 0;
  std::uint64_t uncovered = 0;
  for (const TimedSource::Pull& p : pulls) {
    if (!p.block) continue;
    while (qi < queries.size() && !(queries[qi].ok && queries[qi].version >= p.seq)) ++qi;
    if (qi == queries.size()) {
      ++uncovered;
      continue;
    }
    freshness_ms.push_back((queries[qi].received - p.returned) * 1e3);
  }
  if (uncovered > 0) fail(r, std::to_string(uncovered) + " blocks never reached a served report");

  // --- per-event daemon work, from the gaps between pulls ---
  std::vector<double> apply_us;
  std::vector<std::pair<std::uint64_t, double>> seal_only;  // (blocks, gap s)
  std::vector<std::pair<std::uint64_t, double>> with_checkpoint;
  for (const TimedSource::Pull& p : pulls) {
    if (!p.block || std::isnan(p.next_call)) continue;
    const double gap = p.next_call - p.returned;
    if (p.blocks % kCheckpointEvery == 0) {
      with_checkpoint.emplace_back(p.blocks, gap);
    } else if (p.blocks % kSealEvery == 0) {
      seal_only.emplace_back(p.blocks, gap);
    } else {
      apply_us.push_back(gap * 1e6);
    }
  }
  const double apply_s = median(apply_us) / 1e6;
  std::vector<double> seal_ms;
  for (const auto& [blocks, gap] : seal_only) seal_ms.push_back((gap - apply_s) * 1e3);
  // A checkpointing block also seals; its seal is estimated from the
  // seal-only neighbours 16 blocks either side (seal cost grows with the
  // pair log), and the rest of its gap is the checkpoint.
  const auto seal_near = [&](std::uint64_t blocks) {
    std::vector<double> near;
    for (const auto& [b, gap] : seal_only) {
      if (b + kSealEvery == blocks || b == blocks + kSealEvery) near.push_back(gap - apply_s);
    }
    return near.empty() ? median(seal_ms) / 1e3
                        : (near.size() == 1 ? near[0] : 0.5 * (near[0] + near[1]));
  };
  std::vector<double> checkpoint_ms;
  double seal_total_s = 0.0;
  for (const double s : seal_ms) seal_total_s += s / 1e3;
  for (const auto& [blocks, gap] : with_checkpoint) {
    const double seal = seal_near(blocks);
    seal_total_s += seal;
    checkpoint_ms.push_back((gap - apply_s - seal) * 1e3);
  }
  const double final_seal_s = tracer.total("daemon.final_seal");
  seal_total_s += final_seal_s;
  std::vector<double> seal_all_ms = seal_ms;
  if (final_seal_s > 0.0) seal_all_ms.push_back(final_seal_s * 1e3);

  Layers& L = r.layers;
  L["daemon.query_p50_us"] = median(latency_us);
  L["daemon.query_p99_us"] = percentile(latency_us, 99);
  L["daemon.queries"] = static_cast<double>(latency_us.size());
  L["bench.gen_lag_p99_ms"] = percentile(lag_ms, 99);
  L["daemon.freshness_p50_ms"] = median(freshness_ms);
  L["daemon.freshness_p98_ms"] = percentile(freshness_ms, 98);
  L["daemon.freshness_samples"] = static_cast<double>(freshness_ms.size());
  if (tracer.enabled()) {
    L["daemon.apply_us_p50"] = median(apply_us);
    L["daemon.apply_us_p98"] = percentile(apply_us, 98);
    L["daemon.seal_ms_p50"] = median(seal_ms);
    L["daemon.seal_ms_max"] =
        seal_all_ms.empty() ? 0.0 : *std::max_element(seal_all_ms.begin(), seal_all_ms.end());
    L["daemon.checkpoint_ms_p50"] = median(checkpoint_ms);
    const daemon::DaemonStats stats = audit_daemon.stats();
    L["daemon.seals"] = static_cast<double>(stats.seals);
    L["daemon.checkpoints"] = static_cast<double>(stats.checkpoints_written);
    L["daemon.checkpoint_bytes"] = static_cast<double>(tree_bytes(checkpoint));
    // In-process /report handling, without the socket or HTTP framing.
    std::vector<double> handle_us;
    for (int i = 0; i < 2000; ++i) {
      const auto t = Clock::now();
      const daemon::HttpResponse resp = audit_daemon.handle({"GET", "/report"});
      handle_us.push_back(seconds_between(t, Clock::now()) * 1e6);
      if (resp.status != 200) {
        fail(r, "in-process /report refused");
        break;
      }
    }
    L["daemon.handle_us_p50"] = median(handle_us);
    L["bench.dominant_layer_frac"] = seal_total_s / r.seconds;
  }
  http.stop();
  return r;
}

/// Runs one job in this process. run.py repeats jobs for --seconds, so
/// every job pays what a fresh `cnaudit`/`cnauditd` process pays, and
/// peak RSS is one job's own.
int cmd_job(const std::string& workload, const std::string& dir, bool trace,
            const std::string& trace_out) {
  Tracer tracer(Clock::now(), trace);
  JobContext ctx;
  ctx.dir = dir;
  ctx.manifest = read_manifest(dir);
  ctx.tracer = &tracer;
  if (need(ctx.manifest, "workload") != workload) die("set-up was made for another workload");

  // The daemon reads its data set at start-up, outside the timed job.
  std::optional<io::LoadResult<io::DatasetHandle>> daemon_input;
  if (workload == "daemon") {
    daemon_input = io::open_dataset(dir + "/" + kWorldFile, io::LoadPolicy::kStrict,
                                    io::DatasetFormat::kCnb);
    if (!daemon_input->has_value() || !(*daemon_input)->first_seen) {
      die("strict load of the daemon's world failed");
    }
  }

  const std::map<std::string, double> before = trace ? obs_values() : std::map<std::string, double>{};
  JobResult r;
  if (workload == "simulate") {
    r = job_simulate(ctx);
  } else if (workload == "audit") {
    r = job_audit(ctx, false);
  } else if (workload == "ingest-csv") {
    r = job_audit(ctx, true);
  } else if (workload == "daemon") {
    r = job_daemon(ctx, **daemon_input);
  } else {
    die("unknown workload '" + workload + "'");
  }

  Layers& layers = r.layers;
  if (trace) {
    const std::map<std::string, double> after = obs_values();
    add_counter_deltas(layers, before, after, counter_names());
    layers["core.audit_dataset.memory_bytes"] =
        value_or_zero(after, "core.audit_dataset.memory_bytes");
    layers["bench.span_coverage_frac"] = tracer.child_total() / r.seconds;
    if (workload == "simulate") {
      layers["sim.events_per_s"] = layers["sim.engine.events"] / layers["sim.run_s"];
    }
    // Bytes of the input (or, for simulate, output) file the job touches.
    const char* bytes = workload == "ingest-csv" ? "csv_bytes" : "cnb_bytes";
    layers[std::string("io.") + bytes] = std::strtod(need(ctx.manifest, bytes).c_str(), nullptr);
    if (!trace_out.empty()) tracer.write(trace_out);
  }

  JsonObject layers_json;
  for (const auto& [k, v] : layers) layers_json.num(k, v);
  JsonObject digests_json;
  for (const auto& [k, v] : r.digests) digests_json.str(k, v);
  JsonObject provenance;
  for (const auto& [k, v] : ctx.manifest) provenance.str(k, v);
  provenance.num("nproc", std::thread::hardware_concurrency())
      .num("audit_threads", audit_threads())
      .str("compiler", std::string("gcc ") + __VERSION__)
      .str("build_type", PIPEBENCH_BUILD_TYPE)
      .str("checkpoint_fs", filesystem_kind(dir))
      .num("query_rate_per_s", kQueriesPerSecond);

  JsonObject out;
  out.boolean("ok", r.ok)
      .num("attempted", static_cast<double>(1 + r.queries))
      .num("failed", static_cast<double>((r.ok ? 0 : 1) + r.failed_queries))
      .num("job_s", r.seconds)
      .num("peak_rss_mb", peak_rss_mb())
      .raw("per_layer", layers_json.dump())
      .raw("digests", digests_json.dump())
      .raw("provenance", provenance.dump())
      .strings("errors", r.errors);
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: pipebench setup --workload W --seed N --scale S --dir D\n"
               "       pipebench job --workload W --dir D --trace 0|1 [--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) return usage();
    args[argv[i] + 2] = argv[i + 1];
  }
  const auto get = [&args](const std::string& key) -> std::string {
    const auto it = args.find(key);
    if (it == args.end()) die("missing --" + key);
    return it->second;
  };
  if (command == "setup") {
    return cmd_setup(get("workload"), std::strtoull(get("seed").c_str(), nullptr, 10),
                     std::strtod(get("scale").c_str(), nullptr), get("dir"));
  }
  if (command == "job") {
    const auto out = args.find("trace-out");
    return cmd_job(get("workload"), get("dir"), get("trace") == "1",
                   out == args.end() ? "" : out->second);
  }
  return usage();
}
