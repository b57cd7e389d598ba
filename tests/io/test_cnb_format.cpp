// CNB1 binary columnar format (io/cnb.hpp): round-trip fidelity, the
// typed failure model (bad magic, truncation, checksums), and the
// strict/lenient split — strict pinpoints the first defective section by
// directory index, lenient drops corrupt OPTIONAL groups and still
// yields the chain, and a corrupt REQUIRED section is fatal either way.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "btc/coinbase_tags.hpp"
#include "core/audit_dataset.hpp"
#include "core/wallet_inference.hpp"
#include "helpers.hpp"
#include "io/cnb.hpp"
#include "io/dataset_io.hpp"
#include "node/snapshot.hpp"
#include "testing/fault_injector.hpp"
#include "util/thread_pool.hpp"

namespace cn::io {
namespace {

class CnbFormatTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "/cn_cnb_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".cnb";
  void SetUp() override { std::filesystem::remove(path_); }
  void TearDown() override { std::filesystem::remove(path_); }

  btc::Chain three_block_chain() const {
    btc::Chain chain(100);
    chain.append(cn::test::block_with_rates(100, {9.0, 5.0, 2.0}, "/F2Pool/", 600));
    chain.append(cn::test::block_with_rates(101, {}, "", 1200));
    chain.append(cn::test::block_with_rates(102, {7.0}, "/ViaBTC/", 1900));
    return chain;
  }

  static std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    return bytes;
  }

  static void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  /// Flips one payload byte of the section with @p id. Returns the
  /// 1-based directory index a strict load must report.
  std::size_t corrupt_section(CnbSection id) {
    const auto info = inspect_cnb(path_);
    EXPECT_TRUE(info.has_value());
    std::string bytes = read_bytes(path_);
    for (std::size_t i = 0; i < info->sections.size(); ++i) {
      const CnbSectionInfo& s = info->sections[i];
      if (s.id == static_cast<std::uint32_t>(id)) {
        EXPECT_GT(s.byte_size, 0u);
        bytes[s.offset] = static_cast<char>(bytes[s.offset] ^ 0x5a);
        write_bytes(path_, bytes);
        return i + 1;
      }
    }
    ADD_FAILURE() << "section " << to_string(id) << " not in " << path_;
    return 0;
  }

  /// Patches one 32-byte directory entry in place via @p edit, which
  /// receives a pointer to the entry inside the file bytes (and the
  /// parsed CnbSectionInfo) and may rewrite any of its fields. Returns
  /// the 1-based directory index of the patched entry.
  template <typename Edit>
  std::size_t patch_entry(CnbSection id, Edit edit) {
    const auto info = inspect_cnb(path_);
    EXPECT_TRUE(info.has_value());
    std::string bytes = read_bytes(path_);
    for (std::size_t i = 0; i < info->sections.size(); ++i) {
      if (info->sections[i].id == static_cast<std::uint32_t>(id)) {
        edit(bytes.data() + kCnbHeaderBytes + 32 * i, bytes,
             info->sections[i]);
        write_bytes(path_, bytes);
        return i + 1;
      }
    }
    ADD_FAILURE() << "section " << to_string(id) << " not in " << path_;
    return 0;
  }

  /// Rebrands @p id's directory entry under @p new_id (payload intact).
  std::size_t rebrand_section(CnbSection id, std::uint32_t new_id) {
    return patch_entry(id, [&](char* entry, std::string&, const CnbSectionInfo&) {
      std::memcpy(entry, &new_id, sizeof new_id);
    });
  }

  btc::Chain write_with_snapshots() {
    const btc::Chain chain = three_block_chain();
    node::SnapshotSeries snapshots;
    snapshots.record({15, 3, 700});
    snapshots.record({30, 5, 1400});
    CnbWriteOptions options;
    options.snapshots = &snapshots;
    EXPECT_TRUE(write_cnb(chain, path_, options));
    return chain;
  }
};

TEST_F(CnbFormatTest, ChainAndSeriesRoundTripExactly) {
  const btc::Chain original = three_block_chain();
  node::SnapshotSeries snapshots;
  snapshots.record({15, 3, 700});
  snapshots.record({30, 5, 1400});
  FirstSeenMap first_seen;
  first_seen.emplace(btc::Txid::hash_of("a"), 100);
  first_seen.emplace(btc::Txid::hash_of("b"), 250);

  CnbWriteOptions options;
  options.snapshots = &snapshots;
  options.first_seen = &first_seen;
  std::string error;
  ASSERT_TRUE(write_cnb(original, path_, options, &error)) << error;

  const auto loaded = read_cnb(path_, LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value()) << loaded.report.summary();
  EXPECT_TRUE(loaded.report.clean());
  EXPECT_EQ(loaded->format, DatasetFormat::kCnb);

  ASSERT_EQ(loaded->chain.size(), original.size());
  for (std::size_t b = 0; b < original.size(); ++b) {
    const auto& ob = original.blocks()[b];
    const auto& lb = loaded->chain.blocks()[b];
    EXPECT_EQ(lb.height(), ob.height());
    EXPECT_EQ(lb.mined_at(), ob.mined_at());
    EXPECT_EQ(lb.coinbase().tag, ob.coinbase().tag);
    EXPECT_EQ(lb.coinbase().reward_address, ob.coinbase().reward_address);
    EXPECT_EQ(lb.coinbase().reward.value, ob.coinbase().reward.value);
    ASSERT_EQ(lb.tx_count(), ob.tx_count());
    for (std::size_t i = 0; i < ob.txs().size(); ++i) {
      EXPECT_EQ(lb.txs()[i].id(), ob.txs()[i].id());
      EXPECT_EQ(lb.txs()[i].fee().value, ob.txs()[i].fee().value);
      EXPECT_EQ(lb.txs()[i].vsize(), ob.txs()[i].vsize());
      EXPECT_EQ(lb.txs()[i].issued(), ob.txs()[i].issued());
    }
  }
  // Re-sealed headers must agree with the source chain.
  EXPECT_TRUE(loaded->chain.verify_integrity());
  EXPECT_EQ(loaded->chain.tip_hash(), original.tip_hash());

  ASSERT_TRUE(loaded->snapshots.has_value());
  ASSERT_EQ(loaded->snapshots->size(), 2u);
  EXPECT_EQ(loaded->snapshots->stats()[1].total_vsize, 1400u);
  ASSERT_TRUE(loaded->first_seen.has_value());
  EXPECT_EQ(*loaded->first_seen, first_seen);
  EXPECT_FALSE(loaded->audit_dataset.has_value());
}

// A chain at the parallel-load threshold (65,536 transactions): a strict
// load rebuilds the chain on a helper thread while the main thread builds
// the first-seen map and snapshots from the same mapped file, so under
// TSan (tools/ci.sh) this is the race check for that overlap. On a
// one-core host the load stays serial and the test checks only the round
// trip.
TEST_F(CnbFormatTest, ThreadedLoadOfALargeChainRoundTrips) {
  constexpr std::uint64_t kBlocks = 64;
  constexpr std::size_t kTxsPerBlock = 1025;  // 65,600 transactions in all
  btc::Chain original(500);
  FirstSeenMap first_seen;
  node::SnapshotSeries snapshots;
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const auto mined_at = static_cast<SimTime>(600 * (b + 1));
    std::vector<double> rates(kTxsPerBlock);
    for (std::size_t i = 0; i < rates.size(); ++i) rates[i] = 1.0 + static_cast<double>(i % 40);
    btc::Block block = cn::test::block_with_rates(
        500 + b, rates, b % 2 == 0 ? "/F2Pool/" : "/ViaBTC/", mined_at);
    for (const btc::Transaction& tx : block.txs()) {
      first_seen.emplace(tx.id(), mined_at - 1 - static_cast<SimTime>(first_seen.size() % 500));
    }
    snapshots.record({mined_at - 300, kTxsPerBlock, 250 * kTxsPerBlock});
    original.append(std::move(block));
  }
  ASSERT_GE(original.total_tx_count(), std::uint64_t{1} << 16);

  CnbWriteOptions options;
  options.snapshots = &snapshots;
  options.first_seen = &first_seen;
  std::string error;
  ASSERT_TRUE(write_cnb(original, path_, options, &error)) << error;

  const auto loaded = read_cnb(path_, LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value()) << loaded.report.summary();
  EXPECT_TRUE(loaded.report.clean());
  ASSERT_EQ(loaded->chain.size(), original.size());
  EXPECT_EQ(loaded->chain.total_tx_count(), original.total_tx_count());
  for (std::size_t b = 0; b < original.size(); ++b) {
    const btc::Block& ob = original.blocks()[b];
    const btc::Block& lb = loaded->chain.blocks()[b];
    ASSERT_EQ(lb.header().hash(), ob.header().hash()) << "block " << b;
    EXPECT_EQ(lb.coinbase().tag, ob.coinbase().tag);
    ASSERT_EQ(lb.tx_count(), ob.tx_count());
    for (std::size_t i = 0; i < ob.txs().size(); ++i) {
      const btc::Transaction& o = ob.txs()[i];
      const btc::Transaction& l = lb.txs()[i];
      ASSERT_EQ(l.id(), o.id());
      ASSERT_EQ(l.fee().value, o.fee().value);
      ASSERT_EQ(l.vsize(), o.vsize());
      ASSERT_EQ(l.issued(), o.issued());
      ASSERT_EQ(l.inputs().size(), o.inputs().size());
      for (std::size_t k = 0; k < o.inputs().size(); ++k) {
        ASSERT_EQ(l.inputs()[k].prev_txid, o.inputs()[k].prev_txid);
        ASSERT_EQ(l.inputs()[k].prev_vout, o.inputs()[k].prev_vout);
        ASSERT_EQ(l.inputs()[k].owner, o.inputs()[k].owner);
      }
      ASSERT_EQ(l.outputs().size(), o.outputs().size());
      for (std::size_t k = 0; k < o.outputs().size(); ++k) {
        ASSERT_EQ(l.outputs()[k].to, o.outputs()[k].to);
        ASSERT_EQ(l.outputs()[k].value.value, o.outputs()[k].value.value);
      }
    }
  }
  EXPECT_TRUE(loaded->chain.verify_integrity());
  ASSERT_TRUE(loaded->first_seen.has_value());
  EXPECT_EQ(loaded->first_seen->size(), first_seen.size());
  EXPECT_TRUE(*loaded->first_seen == first_seen);
  ASSERT_TRUE(loaded->snapshots.has_value());
  EXPECT_EQ(loaded->snapshots->size(), snapshots.size());
}

TEST_F(CnbFormatTest, DerivedColumnsRoundTripBitwise) {
  const btc::Chain chain = three_block_chain();
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const core::PoolAttribution attribution(chain, registry);
  util::ThreadPool workers(1);
  const auto dataset = core::AuditDataset::build(chain, attribution, workers);

  CnbWriteOptions options;
  options.dataset = &dataset;
  options.registry_fingerprint = registry.fingerprint();
  std::string error;
  ASSERT_TRUE(write_cnb(chain, path_, options, &error)) << error;

  const auto loaded = read_cnb(path_, LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value()) << loaded.report.summary();
  ASSERT_TRUE(loaded->audit_dataset.has_value());
  EXPECT_EQ(loaded->registry_fingerprint, registry.fingerprint());
  EXPECT_EQ(loaded->prebuilt_for(registry), &*loaded->audit_dataset);

  const core::AuditDataset& r = *loaded->audit_dataset;
  ASSERT_EQ(r.block_count(), dataset.block_count());
  ASSERT_EQ(r.tx_count(), dataset.tx_count());
  ASSERT_EQ(r.pool_count(), dataset.pool_count());

  // memcmp over the spans so NaN cells (undefined PPE/SPPE) compare by
  // representation, exactly as the byte-identity guarantee demands.
  const auto bitwise_equal = [](auto a, auto b) {
    ASSERT_EQ(a.size(), b.size());
    if (!a.empty()) {
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0);
    }
  };
  bitwise_equal(r.block_heights(), dataset.block_heights());
  bitwise_equal(r.block_mined_at(), dataset.block_mined_at());
  bitwise_equal(r.block_pool(), dataset.block_pool());
  bitwise_equal(r.block_fees(), dataset.block_fees());
  bitwise_equal(r.block_ppe(), dataset.block_ppe());
  bitwise_equal(r.fee_rate(), dataset.fee_rate());
  bitwise_equal(r.vsize(), dataset.vsize());
  bitwise_equal(r.issued(), dataset.issued());
  bitwise_equal(r.txids(), dataset.txids());
  bitwise_equal(r.tx_flags(), dataset.tx_flags());
  bitwise_equal(r.sppe(), dataset.sppe());
  bitwise_equal(r.pools_by_blocks(), dataset.pools_by_blocks());
  for (core::PoolId p = 0; p < dataset.pool_count(); ++p) {
    EXPECT_EQ(r.pool_name(p), dataset.pool_name(p));
    EXPECT_EQ(r.pool_tx_count(p), dataset.pool_tx_count(p));
    bitwise_equal(r.blocks_of_pool(p), dataset.blocks_of_pool(p));
    bitwise_equal(r.self_interest_txs(p), dataset.self_interest_txs(p));
  }
  ASSERT_EQ(r.addresses().size(), dataset.addresses().size());
  for (core::TxIdx t = 0; t < dataset.tx_count(); ++t) {
    bitwise_equal(r.out_addrs_of(t), dataset.out_addrs_of(t));
    EXPECT_EQ(r.block_of(t), dataset.block_of(t));
  }
}

TEST_F(CnbFormatTest, InspectReportsHeaderAndSections) {
  const btc::Chain chain = three_block_chain();
  ASSERT_TRUE(write_cnb(chain, path_));
  std::string error;
  const auto info = inspect_cnb(path_, &error);
  ASSERT_TRUE(info.has_value()) << error;
  EXPECT_EQ(info->version, kCnbVersion);
  EXPECT_EQ(info->genesis_height, 100u);
  EXPECT_EQ(info->block_count, 3u);
  EXPECT_EQ(info->tx_count, chain.total_tx_count());
  // No observer/derived groups — only the always-stored sealed headers.
  EXPECT_EQ(info->flags, kCnbFlagSealedHeaders);
  EXPECT_FALSE(info->sections.empty());
  EXPECT_EQ(info->file_size, std::filesystem::file_size(path_));
}

TEST_F(CnbFormatTest, BadMagicIsTyped) {
  write_bytes(path_, std::string(256, 'x'));
  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto loaded = read_cnb(path_, policy);
    EXPECT_FALSE(loaded.has_value());
    ASSERT_NE(loaded.report.first_error(), nullptr);
    EXPECT_EQ(loaded.report.first_error()->kind, LoadErrorKind::kBadMagic);
    EXPECT_EQ(loaded.report.first_error()->line, 0u);
  }
}

// The bugfix satellite: a truncated .cnb must surface as a typed
// LoadError under BOTH policies, never a crash.
TEST_F(CnbFormatTest, TruncatedFileIsTypedUnderBothPolicies) {
  ASSERT_TRUE(write_cnb(three_block_chain(), path_));
  const std::string bytes = read_bytes(path_);
  const auto info = inspect_cnb(path_);
  ASSERT_TRUE(info.has_value());

  // Shorter than the fixed header.
  write_bytes(path_, bytes.substr(0, 40));
  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto loaded = read_cnb(path_, policy);
    EXPECT_FALSE(loaded.has_value());
    ASSERT_NE(loaded.report.first_error(), nullptr);
    EXPECT_EQ(loaded.report.first_error()->kind, LoadErrorKind::kTruncatedFile);
  }

  // Cut inside a REQUIRED section: the directory parses but the column
  // runs past EOF — fatal under both policies.
  std::uint64_t cut = 0;
  for (const CnbSectionInfo& s : info->sections) {
    if (s.id == static_cast<std::uint32_t>(CnbSection::kOutValueSat)) {
      cut = s.offset + 1;
    }
  }
  ASSERT_GT(cut, 0u);
  write_bytes(path_, bytes.substr(0, cut));
  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto loaded = read_cnb(path_, policy);
    EXPECT_FALSE(loaded.has_value());
    ASSERT_NE(loaded.report.first_error(), nullptr);
    EXPECT_EQ(loaded.report.first_error()->kind, LoadErrorKind::kTruncatedFile);
  }

  // A cut that only claims the file's trailing OPTIONAL section (the
  // stored Merkle roots): still a typed defect — strict aborts, lenient
  // salvages the load by re-sealing the chain itself.
  write_bytes(path_, bytes.substr(0, bytes.size() - 9));
  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kTruncatedFile);
  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_GT(lenient.report.rows_skipped, 0u);
  EXPECT_TRUE(lenient->chain.verify_integrity());
  EXPECT_EQ(lenient->chain.tip_hash(), three_block_chain().tip_hash());
}

TEST_F(CnbFormatTest, UnsupportedVersionAndEndiannessRejected) {
  ASSERT_TRUE(write_cnb(three_block_chain(), path_));
  const std::string bytes = read_bytes(path_);

  std::string patched = bytes;
  patched[8] = 99;  // version u32 LE at offset 8
  write_bytes(path_, patched);
  auto loaded = read_cnb(path_, LoadPolicy::kLenient);
  EXPECT_FALSE(loaded.has_value());
  ASSERT_NE(loaded.report.first_error(), nullptr);
  EXPECT_EQ(loaded.report.first_error()->kind,
            LoadErrorKind::kUnsupportedVersion);

  patched = bytes;
  patched[12] = static_cast<char>(0xff);  // endianness tag at offset 12
  write_bytes(path_, patched);
  loaded = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(loaded.has_value());
  ASSERT_NE(loaded.report.first_error(), nullptr);
  EXPECT_EQ(loaded.report.first_error()->kind,
            LoadErrorKind::kUnsupportedVersion);
}

TEST_F(CnbFormatTest, StrictPinpointsCorruptSectionByDirectoryIndex) {
  node::SnapshotSeries snapshots;
  snapshots.record({15, 3, 700});
  snapshots.record({30, 5, 1400});
  CnbWriteOptions options;
  options.snapshots = &snapshots;
  ASSERT_TRUE(write_cnb(three_block_chain(), path_, options));

  const std::string dirty = path_ + ".dirty";
  testing::FaultInjector injector(7);
  testing::InjectionLog log;
  testing::FaultOptions fault_options;
  fault_options.cnb_sections = 1;
  ASSERT_TRUE(injector.inject_cnb_file(path_, dirty, fault_options, log));
  ASSERT_EQ(log.faults.size(), 1u);
  EXPECT_EQ(log.faults[0].kind, testing::FaultKind::kCorruptSection);
  EXPECT_TRUE(log.faults[0].detectable);

  const auto loaded = read_cnb(dirty, LoadPolicy::kStrict);
  EXPECT_FALSE(loaded.has_value());
  ASSERT_NE(loaded.report.first_error(), nullptr);
  const LoadError& err = *loaded.report.first_error();
  EXPECT_EQ(err.kind, LoadErrorKind::kSectionChecksum);
  // The strict error's line is the same 1-based directory index the
  // injector logged, and the detail names the section.
  EXPECT_EQ(err.line, log.faults[0].line);
  EXPECT_NE(log.faults[0].detail.find("section "), std::string::npos);
  std::filesystem::remove(dirty);
}

TEST_F(CnbFormatTest, LenientDropsCorruptOptionalGroupKeepsChain) {
  const btc::Chain chain = three_block_chain();
  node::SnapshotSeries snapshots;
  snapshots.record({15, 3, 700});
  snapshots.record({30, 5, 1400});
  CnbWriteOptions options;
  options.snapshots = &snapshots;
  ASSERT_TRUE(write_cnb(chain, path_, options));
  corrupt_section(CnbSection::kSnapTime);

  // Strict: no value, the defect pinpointed.
  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());

  // Lenient: the snapshot group is dropped, the chain still loads.
  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_FALSE(lenient.report.clean());
  EXPECT_GT(lenient.report.rows_skipped, 0u);
  EXPECT_FALSE(lenient->snapshots.has_value());
  EXPECT_EQ(lenient->chain.size(), chain.size());
  EXPECT_EQ(lenient->chain.tip_hash(), chain.tip_hash());
}

TEST_F(CnbFormatTest, CorruptMerkleSectionFallsBackToResealing) {
  const btc::Chain chain = three_block_chain();
  ASSERT_TRUE(write_cnb(chain, path_));
  const std::size_t dir_index = corrupt_section(CnbSection::kBlockMerkleRoot);

  // Strict: the sealed-header fast path is a section like any other.
  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kSectionChecksum);
  EXPECT_EQ(strict.report.first_error()->line, dir_index);

  // Lenient: the roots are recomputable, so dropping the section only
  // costs the shortcut — the re-sealed chain is identical.
  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_GT(lenient.report.rows_skipped, 0u);
  EXPECT_TRUE(lenient->chain.verify_integrity());
  EXPECT_EQ(lenient->chain.tip_hash(), chain.tip_hash());
}

TEST_F(CnbFormatTest, CorruptRequiredSectionIsFatalUnderBothPolicies) {
  ASSERT_TRUE(write_cnb(three_block_chain(), path_));
  const std::size_t dir_index = corrupt_section(CnbSection::kTxFeeSat);
  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto loaded = read_cnb(path_, policy);
    EXPECT_FALSE(loaded.has_value());
    ASSERT_NE(loaded.report.first_error(), nullptr);
    EXPECT_EQ(loaded.report.first_error()->kind,
              LoadErrorKind::kSectionChecksum);
    EXPECT_EQ(loaded.report.first_error()->line, dir_index);
  }
}

TEST_F(CnbFormatTest, UnknownSectionIdIgnoredButRequiredOnesMissed) {
  ASSERT_TRUE(write_cnb(three_block_chain(), path_));
  const auto info = inspect_cnb(path_);
  ASSERT_TRUE(info.has_value());
  std::string bytes = read_bytes(path_);
  for (std::size_t i = 0; i < info->sections.size(); ++i) {
    if (info->sections[i].id ==
        static_cast<std::uint32_t>(CnbSection::kBlockMinedAt)) {
      // Rebrand the section under an id this version has never heard of:
      // forward compatibility says skip it, after which a required
      // section is simply missing.
      const std::size_t entry = kCnbHeaderBytes + 32 * i;
      const std::uint32_t unknown = 60'000;
      std::memcpy(bytes.data() + entry, &unknown, sizeof(unknown));
      break;
    }
  }
  write_bytes(path_, bytes);
  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto loaded = read_cnb(path_, policy);
    EXPECT_FALSE(loaded.has_value());
    ASSERT_NE(loaded.report.first_error(), nullptr);
    EXPECT_EQ(loaded.report.first_error()->kind,
              LoadErrorKind::kMissingSection);
    EXPECT_NE(loaded.report.first_error()->detail.find("block-mined-at"),
              std::string::npos);
  }
}

// A group whose optional section is simply MISSING (not
// checksum-corrupt) must be poisoned whole: strict aborts, lenient
// drops the group. Before the fix lenient kept group_ok true and
// consumed the sibling columns half-loaded (out-of-bounds reads on the
// empty counts vector).
TEST_F(CnbFormatTest, LenientDropsGroupWhenOptionalSectionMissing) {
  const btc::Chain chain = write_with_snapshots();
  // Hide kSnapTxCount under an unrecognised id: the reader skips the
  // entry, leaving the snapshot group with times but no counts.
  rebrand_section(CnbSection::kSnapTxCount, 60'001);

  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kMissingSection);

  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_FALSE(lenient.report.clean());
  EXPECT_GT(lenient.report.rows_skipped, 0u);
  EXPECT_FALSE(lenient->snapshots.has_value());
  EXPECT_EQ(lenient->chain.size(), chain.size());
  EXPECT_EQ(lenient->chain.tip_hash(), chain.tip_hash());
}

// Same failure model for a checksum-clean section whose byte size
// disagrees with the group's implied element count.
TEST_F(CnbFormatTest, LenientDropsGroupWhenOptionalSectionWrongSized) {
  const btc::Chain chain = write_with_snapshots();
  // Shrink kSnapTxCount to one element, checksum recomputed so the only
  // defect is the size disagreeing with kSnapTime's count.
  const std::size_t dir_index = patch_entry(
      CnbSection::kSnapTxCount,
      [](char* entry, std::string& bytes, const CnbSectionInfo& s) {
        const std::uint64_t new_size = 8;
        const std::uint64_t checksum =
            cnb_checksum(bytes.data() + s.offset, new_size);
        std::memcpy(entry + 16, &new_size, sizeof new_size);
        std::memcpy(entry + 24, &checksum, sizeof checksum);
      });

  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kSectionLayout);
  EXPECT_EQ(strict.report.first_error()->line, dir_index);

  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_GT(lenient.report.rows_skipped, 0u);
  EXPECT_FALSE(lenient->snapshots.has_value());
  EXPECT_EQ(lenient->chain.tip_hash(), chain.tip_hash());
}

// The derived-columns flavour of the missing-section hole: an absent
// offsets column used to reach name_offsets.front() on an empty vector.
TEST_F(CnbFormatTest, LenientDropsDerivedGroupWhenOffsetsColumnMissing) {
  const btc::Chain chain = three_block_chain();
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const core::PoolAttribution attribution(chain, registry);
  util::ThreadPool workers(1);
  const auto dataset = core::AuditDataset::build(chain, attribution, workers);
  CnbWriteOptions options;
  options.dataset = &dataset;
  options.registry_fingerprint = registry.fingerprint();
  ASSERT_TRUE(write_cnb(chain, path_, options));
  rebrand_section(CnbSection::kPoolNameOffsets, 60'002);

  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kMissingSection);

  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_FALSE(lenient->audit_dataset.has_value());
  EXPECT_EQ(lenient->chain.tip_hash(), chain.tip_hash());
}

// A section offset the writer would never emit (not 8-byte aligned)
// must be rejected in the directory walk, never reinterpret_cast into a
// misaligned column view.
TEST_F(CnbFormatTest, MisalignedSectionOffsetIsTypedNotDereferenced) {
  const btc::Chain chain = write_with_snapshots();
  const std::size_t dir_index = patch_entry(
      CnbSection::kSnapTime,
      [](char* entry, std::string&, const CnbSectionInfo& s) {
        const std::uint64_t off = s.offset + 4;
        std::memcpy(entry + 8, &off, sizeof off);
      });

  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kSectionLayout);
  EXPECT_EQ(strict.report.first_error()->line, dir_index);
  EXPECT_NE(strict.report.first_error()->detail.find("aligned"),
            std::string::npos);

  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_FALSE(lenient->snapshots.has_value());
  EXPECT_EQ(lenient->chain.tip_hash(), chain.tip_hash());
}

// Duplicate directory entries: the first (already verified) entry wins;
// the duplicate is a recorded defect — droppable for an optional
// section in lenient mode, fatal like any defect under strict.
TEST_F(CnbFormatTest, DuplicateOptionalEntryKeepsFirstUnderLenient) {
  const btc::Chain chain = three_block_chain();
  node::SnapshotSeries snapshots;
  snapshots.record({15, 3, 700});
  snapshots.record({30, 5, 1400});
  FirstSeenMap first_seen;
  first_seen.emplace(btc::Txid::hash_of("a"), 100);
  first_seen.emplace(btc::Txid::hash_of("b"), 250);
  CnbWriteOptions options;
  options.snapshots = &snapshots;
  options.first_seen = &first_seen;
  ASSERT_TRUE(write_cnb(chain, path_, options));
  // Rebrand the first-seen time column as a SECOND kSnapTxCount entry.
  const std::size_t dir_index = rebrand_section(
      CnbSection::kFirstSeenTime,
      static_cast<std::uint32_t>(CnbSection::kSnapTxCount));

  const auto strict = read_cnb(path_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kSectionLayout);
  EXPECT_EQ(strict.report.first_error()->line, dir_index);
  EXPECT_NE(strict.report.first_error()->detail.find("duplicate"),
            std::string::npos);

  const auto lenient = read_cnb(path_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value()) << lenient.report.summary();
  EXPECT_FALSE(lenient.report.clean());
  // Keep-first: the snapshot group still loads from its intact entry...
  ASSERT_TRUE(lenient->snapshots.has_value());
  ASSERT_EQ(lenient->snapshots->size(), 2u);
  EXPECT_EQ(lenient->snapshots->stats()[1].tx_count, 5u);
  // ...while the group that actually lost a section is dropped.
  EXPECT_FALSE(lenient->first_seen.has_value());
  EXPECT_EQ(lenient->chain.tip_hash(), chain.tip_hash());
}

// Duplicating a REQUIRED section is a file-level malformation lenient
// mode has no safe answer to — fatal under both policies.
TEST_F(CnbFormatTest, DuplicateRequiredEntryIsFatalUnderBothPolicies) {
  write_with_snapshots();
  const std::size_t dir_index = rebrand_section(
      CnbSection::kSnapTime,
      static_cast<std::uint32_t>(CnbSection::kBlockMinedAt));
  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto loaded = read_cnb(path_, policy);
    EXPECT_FALSE(loaded.has_value());
    ASSERT_NE(loaded.report.first_error(), nullptr);
    EXPECT_EQ(loaded.report.first_error()->kind, LoadErrorKind::kSectionLayout);
    EXPECT_EQ(loaded.report.first_error()->line, dir_index);
    EXPECT_NE(loaded.report.first_error()->detail.find(
                  "duplicate section block-mined-at"),
              std::string::npos);
  }
}

// A crafted section_count must be bounds-checked against the file size
// before anything is sized by it (a 0xFFFFFFFF count is a ~137 GB
// reserve otherwise — std::bad_alloc, not a typed failure).
TEST_F(CnbFormatTest, InspectRejectsHugeSectionCountWithoutAllocating) {
  ASSERT_TRUE(write_cnb(three_block_chain(), path_));
  std::string bytes = read_bytes(path_);
  const std::uint32_t huge = 0xFFFFFFFFu;
  std::memcpy(bytes.data() + 16, &huge, sizeof huge);  // section_count
  write_bytes(path_, bytes);
  std::string error;
  const auto info = inspect_cnb(path_, &error);
  EXPECT_FALSE(info.has_value());
  EXPECT_NE(error.find("directory extends past EOF"), std::string::npos);
}

}  // namespace
}  // namespace cn::io
