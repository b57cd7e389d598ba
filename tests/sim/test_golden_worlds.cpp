// Golden world corpus: the SHA-256 of the CNB1 bytes of small worlds
// that together take every template-builder path — GBT on data sets A, B
// and C, the legacy coin-age builder, aging, selfish and evasive boosts,
// propagation and withholding exclusions, the FIFO fair queue, a
// fee-only regime and a year slice. Each file is written with the
// options io::WorldCache uses for a cache entry.
//
// test_determinism.cpp pins one larger data set A world the same way.
// A digest that changes means the world bytes changed. When that is intended, bump
// sim::kWorldSpecVersion (so stale cache entries stop being addressed,
// DESIGN.md §14) and re-pin every digest below; otherwise it is a
// determinism regression.
//
// Each world also pins the SHA-256 of the audit report rendered from its
// CNB1 file (load, data quality, run_full_audit, print_audit_report), so
// a change anywhere between the stored bytes and the printed report is
// seen too. The audit runs at threads 0 (the default), 1 and 4, and all
// three reports must match the one digest. A report digest that changes
// without a world digest change means the audit's output changed:
// intended changes re-pin it.
//
// The same world exported as CSV (chain, snapshots and first-seen files)
// and loaded strictly must render that same report. A seeded
// FaultInjector copy of the export (every row-fault kind plus a cut
// tail) loaded leniently pins two more digests: one over its LoadReport
// (row counts and every defect's kind, file, line, detail and repair
// flag) and one over the report rendered from what survived. Those two
// show that a change to the CSV reader or the importers kept every skip,
// repair and diagnostic. The JSON report cnauditd seals after replaying
// the CNB1 file is pinned too: its %.17g doubles include every
// self-dealing p-value and SPPE.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "btc/coinbase_tags.hpp"
#include "core/audit_pipeline.hpp"
#include "core/data_quality.hpp"
#include "daemon/daemon.hpp"
#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "io/dataset_source.hpp"
#include "io/stream_source.hpp"
#include "io/world_cache.hpp"
#include "sim/engine.hpp"
#include "sim/world_spec.hpp"
#include "testing/fault_injector.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace cn {
namespace {

// Small enough that the whole corpus simulates in seconds, large enough
// that congestion fills blocks and builds end on a full budget.
constexpr double kScale = 0.04;
constexpr std::uint64_t kSeed = 42;

// The sim::kWorldSpecVersion the digests below were pinned at.
constexpr std::uint32_t kPinnedSpecVersion = 1;

// The fault-injected copy of each CSV export: every row-fault kind at this
// rate, plus a tail cut mid-record in every file.
constexpr std::uint64_t kFaultSeed = 7;
constexpr double kFaultRate = 0.01;

struct GoldenWorld {
  const char* name;
  sim::WorldSpec spec;
  const char* cnb_sha256;
  const char* report_sha256;
  const char* lenient_load_sha256;    ///< LoadReport of the faulted CSV export
  const char* lenient_report_sha256;  ///< report rendered from that load
  const char* daemon_sha256;          ///< cnauditd's sealed JSON report
};

sim::WorldSpec scenario(sim::DatasetKind kind, const char* label) {
  sim::WorldSpec spec = sim::baseline_spec(kind, kSeed, kScale);
  spec.scenario = label;
  return spec;
}

// bench/worlds.hpp's detection world: data set C without the scam
// window, self-interest planted at half a transaction per block.
sim::WorldSpec detection(bool propagation) {
  sim::WorldSpec spec = scenario(sim::DatasetKind::kC, "detection");
  spec.set("scam", 0.0);
  spec.set("self_interest_per_block", 0.5);
  spec.set("propagation_exclusion", propagation ? 1.0 : 0.0);
  return spec;
}

sim::WorldSpec selfish(bool propagation) {
  return detection(propagation).set("selfish", 1.0);
}

const std::vector<GoldenWorld>& corpus() {
  using sim::DatasetKind;
  static const std::vector<GoldenWorld>* worlds = [] {
    sim::WorldSpec withholding = selfish(true);
    withholding.scenario = "withholding";
    withholding.set("withhold_delay_s", 120.0);
    sim::WorldSpec year = scenario(DatasetKind::kC, "year-slice");
    year.set("genesis_height", 450'000.0);
    year.set("scam", 0.0);
    year.set("clear_bursts", 1.0);
    year.set("utilization", 0.92);
    year.set("anchor_multiplier", 3.6);

    return new std::vector<GoldenWorld>{
        {"baseline-A", sim::baseline_spec(DatasetKind::kA, kSeed, kScale),
         "a79c176da633857cedfff6ea4fc599c33c31aadefa50a7d7e391bcbab3307ae3",
         "4ab8223a000484bb528763f167d5ffb1ae3b27d1d27d4e3dc02c4f195f9f22e2",
         "80fe70e8b1cee4e4dcb6a8115b0e600f5be9a66ce2c8bdee40819ef45cc15b20",
         "2df6ec40865b06f1ae8d91f3b8055d5c33802317f7de8ed99f70f3a1e0f8e8ec",
         "b5e6b6ad54c8e2ef3b5467c87cec7790a517cd5555a18ff82fb5e86ccf1497e5"},
        {"baseline-B", sim::baseline_spec(DatasetKind::kB, kSeed, kScale),
         "1eef54b8fe837f36191f4e2e37602ad6c48c6c2f17ff459fecbe839e7ab94b94",
         "a3db8184afc6108fdbaef5142b35f0ca3d5c069706ea26e70a7bdac0964825c3",
         "764a00b6ea79a003418889511f60d797975220cf99cea1bb1a08774162ea78e6",
         "1f408931ae1d3ec45f7f877583b456e0d84b3e6c28af0a292891d476410bda0a",
         "3f07a832700362ad6243402c46272948798538c4ebd8fda67332df31b641bcff"},
        {"baseline-C", sim::baseline_spec(DatasetKind::kC, kSeed, kScale),
         "efbef403aab7c83f107eefa005a4271acb0f977731e76e5f622e53785cdc23b5",
         "c87c615a7989c8d1625e593e0eca28570cfc5d7ffb1586ca60d02f54f2b97c7f",
         "d7ff41bde4c07660b6e8c2879d40de3fb27150428151d6f060cf96060054f571",
         "56e95a74dd3bb679d9b395a90de898d74f71206a0d6d330fd1334686a3e48bb0",
         "05ae7c2f107651660b1964a3ea1c8192dda63be8054f912c2340fb0018885d51"},
        {"era-legacy", scenario(DatasetKind::kA, "era-legacy").set("builder", 1.0),
         "eba08b82ca4c20dbf466010cbf9313e92fbf1d086607ceb025fe2d0e22956cb1",
         "46657b8b10eb121b20a09b93f23638a782f8ee3e74981e6e1354b8ef3da6826c",
         "dd295aad397050e9b5b8c150bd359c6ccba8942794a581db68b75aade2641925",
         "bdca956bb8049042ba2849e5444e8302e05766d585417c6d834bf25aa571e876",
         "29ce9a3d9f8e02f1d74800449cd06f261d0a64de79ff88e0c739605ea45cfb55"},
        {"aging-0.2", scenario(DatasetKind::kA, "aging").set("age_weight_per_hour", 0.2),
         "5acc05e20f149f6102dfcfe19e96fe8f6b3df22bd3a3454694276bd75717cded",
         "cfaa5490f1a284289ce54166fb62967a79bd4e906f80b5065765938aa465d040",
         "29c66f8849e4e85bb67a25a648fe5221bf9d76baace5970b454a8a0f0eb1af1a",
         "031937352abc98aa4ebe572c93e3884d2e91841f87a89c74cb2d219b4d37e088",
         "6620ffffc340ecb6f6acbaa9b341234df39da71a9cbe32b6f96481925fa0ebb9"},
        {"aging-1.0", scenario(DatasetKind::kA, "aging").set("age_weight_per_hour", 1.0),
         "310f472cc0e42aea947ba5fdc34754011f74ef79463a0844b8885e0fbd3738f5",
         "cb59eedb798ded8d634ab72610f05a3752b2d812ce26f0dac3c8d10c2d79e4bd",
         "e097565a0e5ae75dd403a1adc1033e1231788f50e2c2045b30661c88c3197a25",
         "af009585317954df64b848752028d609901bfd01aca49f69b256a8bb5e4da8bc",
         "6ddef14f6a43b8fdd81dc021756b7fd5f5014d292da2ee8a7ca19f5b8929e4fc"},
        {"selfish", selfish(true),
         "50ddd09f215b449eb54762adae31c7fb8b3f870fbd85646a65fa0e3b514a716b",
         "6d97225d06aede707b952ef70cf5cfeefeadf70218840dea5a17785c487c2fb3",
         "2db0b2272945ed0863c721485c9c94411018cbf9cba303f830cfb58a14f1319d",
         "9cd9054eb93614f6de302112cb3a82b06b72dffd267928880257001d4b0761c2",
         "c3423987a3ef67e4b69aee2b7f1c281d6b770152352081efb1d553544dbba567"},
        {"selfish-no-propagation", selfish(false),
         "31c8be13f5c3304d008858e56e598358bdaa5036acf7b6383d9043d7f585b160",
         "af185901772a31dd37522d3fb7b9a01cd5ca9538db226013261d81f2d940eba3",
         "cbd0f7c75825891ff2a8ed0306268f4e45b24e5489289d2c855797249422bbff",
         "37c906dca3ba5841d9f413095917bca66f1e9a7a8cb124215f4ca4f12e2269cf",
         "fa4c19e36c86f4935a0543134d73af6a85efc91760df012fd2c7e1cf7e27c7db"},
        {"evasion-0.5", detection(true).set("evasion_theta", 0.5),
         "9e5a3d62362c0e8f6a4ef6fc3fd7d620e51e77d32fef471cc72286c78015c133",
         "b852484aa63258488a1d929040eaf139677e8ad3212b0bf0d2ce52a5c265ee62",
         "df4d640b3b3fd496799ce2549fe5a4eda4f764ecca0a8ac0d359cfb7e798ab2e",
         "410a7d93722e274af45c5ef761734cd25bb650c904d497a496c24aea2c3f4ae7",
         "0b8783c0aed3bdf86b8ad077c650b19c80cf08005fe7e53e59062d96c01cb6ee"},
        {"withholding-120s", withholding,
         "237205ca155813b8085229ceb3d1565b4e1b4aeed4d644023c2e15963b105406",
         "adc2cf65912535391232d3376e9fe8ec3b8b268706aa8e10d388f4466c214e33",
         "df679378d20b060202e1209a033f4087a523aea26eb06d7139a751c796bf9326",
         "cae567edf2e82226e291e660709b34bf541bfa5f5b24e060095b3834fbb682d9",
         "080a2349fa066fa907a7ccd7342e555cbac681047d3945d9e6a9ca6d113a0c35"},
        {"fair-queue", scenario(DatasetKind::kC, "fair-queue").set("fair_queue", 1.0),
         "04d9c74d7d683d7e1234e2057a913e7b28e38782706c348869136329d4b6232a",
         "c365f6d7f0335f93872d95623bf5f6a09e4bff05244759b10792ad91cc682535",
         "cce6107699f7e6a1800d51ce8214bdc694bda9165d8f009e01d2574750891245",
         "bd6b5c1fecd36bf504392f008ba6e3302d972ed5d31ea2116530a649bfe68dc7",
         "510f9b1d274f10c5d6d299b31b12ac42e744cc7430e92621d5a1ccf4e63a5410"},
        {"fee-only", scenario(DatasetKind::kC, "fee-only").set("fee_only", 1.0),
         "01c48290b5d994d3d1bc91b6d1b633c84c5235756b7e0c4a0572d25b7c4ff77d",
         "c87c615a7989c8d1625e593e0eca28570cfc5d7ffb1586ca60d02f54f2b97c7f",
         "d7ff41bde4c07660b6e8c2879d40de3fb27150428151d6f060cf96060054f571",
         "56e95a74dd3bb679d9b395a90de898d74f71206a0d6d330fd1334686a3e48bb0",
         "05ae7c2f107651660b1964a3ea1c8192dda63be8054f912c2340fb0018885d51"},
        {"year-slice-2017", year,
         "20165caa6169e2a723f52637c588efd4ad0246bb112c10fcd4f5b2e131735582",
         "79337dd156394723d10aba70d2a44ae8a8c8e0540f56e44cc503d8320f98cd61",
         "9d5aabc8a830bf7f575ff4848a59ad5c24bdae6d37a8478dacdff501e2514de5",
         "68abcbe432a12a54438ca1525c1ba138609eb99ab9b01048df2304b61600cb20",
         "426c4f3666891aa9868b51ec605fad0f5c28ac481c56ecb57a73a088dadd471d"},
    };
  }();
  return *worlds;
}

std::string file_sha256(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return hex_encode(sha256(bytes));
}

/// Writes @p result as @p world's CNB1 file, exactly as
/// io::WorldCache::generate writes a cache entry, and returns its SHA-256.
std::string world_sha256(const GoldenWorld& world, const sim::SimResult& result,
                         const std::filesystem::path& path) {
  io::SimWorldInfo truth;
  truth.spec_fingerprint = world.spec.fingerprint();
  truth.scam_address = result.scam_address;
  truth.accelerated_txids = result.acceleration.all_accelerated_sorted();
  io::CnbWriteOptions options;
  options.snapshots = &result.observer.snapshots();
  options.first_seen = &result.observer.first_seen_map();
  options.world = &truth;
  std::string error;
  EXPECT_TRUE(io::write_cnb(result.chain, path.string(), options, &error)) << error;
  return file_sha256(path);
}

std::string rendered(const core::AuditReport& report) {
  std::FILE* tmp = std::tmpfile();
  core::print_audit_report(report, tmp);
  const long size = std::ftell(tmp);
  std::string out(static_cast<std::size_t>(size), '\0');
  std::rewind(tmp);
  const std::size_t read = std::fread(out.data(), 1, out.size(), tmp);
  std::fclose(tmp);
  out.resize(read);
  return out;
}

/// Audits a loaded data set as the pipeline benchmark's audit workload
/// does (data quality, run_full_audit watching @p scam, on @p threads
/// lanes) and returns the SHA-256 of the rendered report. A series the
/// load dropped is absent from the quality assessment, as in cnaudit.
std::string audit_sha256(const io::DatasetHandle& data, btc::Address scam,
                         unsigned threads = 0) {
  const node::SnapshotSeries* snapshots = data.snapshots ? &*data.snapshots : nullptr;
  const io::FirstSeenMap* first_seen = data.first_seen ? &*data.first_seen : nullptr;
  const core::DataQualityReport quality =
      core::assess_data_quality(data.chain, snapshots, first_seen);
  core::AuditOptions options;
  options.watch_addresses.push_back(scam);
  options.first_seen = first_seen;
  options.interned_addresses = &data.addresses;
  options.threads = threads;
  return hex_encode(sha256(rendered(core::run_full_audit(
      data.chain, btc::CoinbaseTagRegistry::paper_registry(), &quality, options))));
}

/// Strict-loads the CNB1 file at @p path and returns the digest of its
/// report audited on @p threads lanes.
std::string report_sha256(const std::filesystem::path& path, unsigned threads) {
  const auto loaded =
      io::open_dataset(path.string(), io::LoadPolicy::kStrict, io::DatasetFormat::kCnb);
  if (!loaded || !loaded->snapshots || !loaded->first_seen || !loaded->sim_world) {
    ADD_FAILURE() << path << ": " << loaded.report.summary();
    return "";
  }
  return audit_sha256(*loaded, loaded->sim_world->scam_address, threads);
}

/// Exports @p result as a CSV data set under @p dir.
void export_csv(const sim::SimResult& result, const std::filesystem::path& dir) {
  const std::string base = dir.string();
  std::string error;
  EXPECT_TRUE(io::export_chain(result.chain, base, &error) &&
              io::export_snapshots(result.observer.snapshots(),
                                   base + "/snapshots.csv", &error) &&
              io::export_first_seen(result.observer.first_seen_map(),
                                    base + "/first_seen.csv", &error))
      << error;
}

/// Strict-loads the CSV data set under @p dir and returns its report
/// digest, watching @p scam (CSV carries no simulator ground truth).
std::string csv_report_sha256(const std::filesystem::path& dir, btc::Address scam) {
  const auto loaded =
      io::open_dataset(dir.string(), io::LoadPolicy::kStrict, io::DatasetFormat::kCsv);
  if (!loaded || !loaded->snapshots || !loaded->first_seen) {
    ADD_FAILURE() << dir << ": " << loaded.report.summary();
    return "";
  }
  return audit_sha256(*loaded, scam);
}

/// SHA-256 over everything a LoadReport says: the row counts and, per
/// defect, its kind, file name (not the temporary directory), line,
/// detail and repair flag.
std::string load_report_sha256(const io::LoadReport& report) {
  std::string text = "read " + std::to_string(report.rows_read) + " skipped " +
                     std::to_string(report.rows_skipped) + " repaired " +
                     std::to_string(report.rows_repaired) + " ok " +
                     std::to_string(report.ok) + "\n";
  for (const io::LoadError& e : report.errors) {
    text += std::string(io::to_string(e.kind)) + '|' +
            std::filesystem::path(e.file).filename().string() + '|' +
            std::to_string(e.line) + '|' + e.detail + '|' +
            std::to_string(e.repaired) + '\n';
  }
  return hex_encode(sha256(text));
}

struct LenientDigests {
  std::string load;
  std::string report;
};

/// Copies the CSV data set at @p clean into @p dirty with the corpus's
/// seeded faults, loads the copy leniently and digests the outcome.
LenientDigests lenient_sha256(const std::filesystem::path& clean,
                              const std::filesystem::path& dirty, btc::Address scam) {
  cn::testing::FaultOptions faults;
  faults.row_corruption_rate = kFaultRate;
  faults.truncate_tail = true;
  cn::testing::FaultInjector(kFaultSeed)
      .inject_dataset(clean.string(), dirty.string(), faults);
  const auto loaded =
      io::open_dataset(dirty.string(), io::LoadPolicy::kLenient, io::DatasetFormat::kCsv);
  LenientDigests out;
  out.load = load_report_sha256(loaded.report);
  if (!loaded) {
    ADD_FAILURE() << dirty << ": lenient load produced no data set: "
                  << loaded.report.summary();
    return out;
  }
  out.report = audit_sha256(*loaded, scam);
  return out;
}

/// Replays the CNB1 file at @p path as `cnauditd --oneshot` does
/// (strict load, default config) and digests the sealed JSON report.
std::string daemon_sha256(const std::filesystem::path& path) {
  const auto loaded =
      io::open_dataset(path.string(), io::LoadPolicy::kStrict, io::DatasetFormat::kCnb);
  if (!loaded || !loaded->first_seen) {
    ADD_FAILURE() << path << ": " << loaded.report.summary();
    return "";
  }
  const core::FirstSeenFn first_seen = [&map = *loaded->first_seen](const btc::Txid& id) {
    const auto it = map.find(id);
    return it == map.end() ? std::nullopt : std::optional<SimTime>(it->second);
  };
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  io::ReplaySource replay(*loaded);
  daemon::AuditDaemon daemon(replay, registry, first_seen, daemon::DaemonConfig{});
  daemon.run_to_end();
  return hex_encode(sha256(daemon.seal_report_json()));
}

std::filesystem::path fresh_dir(const char* name) {
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir()) / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(GoldenWorlds, CnbAndReportBytesMatchPins) {
  ASSERT_EQ(sim::kWorldSpecVersion, kPinnedSpecVersion)
      << "sim::kWorldSpecVersion changed: re-simulate the corpus, re-pin "
         "every digest in this file and set kPinnedSpecVersion to match.";
  const std::filesystem::path dir = fresh_dir("cn_golden_worlds");
  for (const GoldenWorld& world : corpus()) {
    const sim::SimResult result = sim::Engine(world.spec.config()).run();
    const std::filesystem::path path = dir / (std::string(world.name) + ".cnb");
    EXPECT_EQ(world_sha256(world, result, path), world.cnb_sha256)
        << world.name << " (" << world.spec.label()
        << "): the world bytes changed. If the change is intended, bump "
           "sim::kWorldSpecVersion and re-pin every digest in this file; "
           "otherwise it is a determinism regression.";
    for (const unsigned threads : {0u, 1u, 4u}) {
      EXPECT_EQ(report_sha256(path, threads), world.report_sha256)
          << world.name << " (" << world.spec.label() << ", threads "
          << threads
          << "): the rendered audit report changed. If the change is "
             "intended, re-pin this report digest; otherwise it is a "
             "regression between the stored world and the printed report.";
    }
    EXPECT_EQ(daemon_sha256(path), world.daemon_sha256)
        << world.name << ": the daemon's sealed JSON report changed.";

    const std::filesystem::path csv = dir / (std::string(world.name) + "-csv");
    export_csv(result, csv);
    EXPECT_EQ(csv_report_sha256(csv, result.scam_address), world.report_sha256)
        << world.name << ": the report audited from the world's CSV export "
           "differs from the one audited from its CNB1 file.";

    const LenientDigests lenient = lenient_sha256(
        csv, dir / (std::string(world.name) + "-faulted"), result.scam_address);
    EXPECT_EQ(lenient.load, world.lenient_load_sha256)
        << world.name << ": the lenient load of the fault-injected CSV export "
           "reported different rows, skips, repairs or diagnostics.";
    EXPECT_EQ(lenient.report, world.lenient_report_sha256)
        << world.name << ": the report rendered from the lenient load of the "
           "fault-injected CSV export changed.";
  }
  std::filesystem::remove_all(dir);
}

TEST(GoldenWorlds, PinsAreWorldCacheEntries) {
  // world_sha256 mirrors io::WorldCache::generate; check it against the
  // cache itself on one world so the pins stay cache-entry digests.
  const std::filesystem::path dir = fresh_dir("cn_golden_cache");
  io::WorldCache cache(dir.string());
  const GoldenWorld& first = corpus().front();
  cache.materialize(first.spec);
  EXPECT_EQ(file_sha256(cache.path_for(first.spec)), first.cnb_sha256);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cn
