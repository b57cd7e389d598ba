// Checkpoints (daemon/checkpoint.hpp): a state file plus an append-only
// event-log segment. Save/load round-trips the accumulators
// byte-exactly; every way a checkpoint can be wrong — missing,
// truncated, bit-flipped, wrong magic or version, a short or garbled
// segment, written under different thresholds or a different tag
// registry — fails with the matching typed io::LoadError; bytes past the
// segment's committed prefix are ignored and the next save truncates
// them; each save appends only the new records; and overwrites are
// atomic (the previous file survives a failed write).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "btc/coinbase_tags.hpp"
#include "daemon/accumulators.hpp"
#include "daemon/checkpoint.hpp"
#include "io/load_report.hpp"
#include "util/rng.hpp"

namespace cn::daemon {
namespace {

class CheckpointTest : public ::testing::Test {
 protected:
  std::string path_ =
      ::testing::TempDir() + "/cn_ckpt_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".ckpt";
  std::string segment_ = checkpoint_log_path(path_);
  btc::CoinbaseTagRegistry registry_ = btc::CoinbaseTagRegistry::paper_registry();

  void SetUp() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(segment_);
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(path_ + ".tmp");
    std::filesystem::remove(segment_);
  }

  AccumulatorOptions options() const {
    AccumulatorOptions o;
    o.neutrality.min_blocks = 2;
    return o;
  }

  /// Applies blocks [first, first + count) of a two-pool stream, each
  /// followed by a snapshot; a block adds three event-log records.
  static void grow(AuditAccumulators& acc, std::uint64_t first, std::uint64_t count) {
    for (std::uint64_t h = first; h < first + count; ++h) {
      const SimTime t = static_cast<SimTime>(600 * (h - 799));
      acc.apply_block(cn::test::block_with_rates(
                          h, {8.0, 4.0, 2.0}, h % 2 == 0 ? "/F2Pool/" : "/ViaBTC/", t),
                      cn::test::seen_at_txid, 2 * (h - 800) + 1);
      acc.apply_snapshot({t + 15, 5, 1'200'000}, 2 * (h - 800) + 2);
    }
  }

  AuditAccumulators populated(std::uint64_t blocks = 12) const {
    AuditAccumulators acc(registry_, options());
    grow(acc, 800, blocks);
    return acc;
  }

  /// Saves a fresh checkpoint of populated(@p blocks) and returns its log.
  CheckpointLog saved(std::uint64_t blocks = 12) const {
    CheckpointLog log;
    std::string error;
    EXPECT_TRUE(save_checkpoint(populated(blocks), path_, log, &error)) << error;
    return log;
  }

  CheckpointLoad load_into(AuditAccumulators& acc) const {
    return load_checkpoint(acc, path_, options().fingerprint(),
                           registry_.fingerprint());
  }

  /// Loads into a fresh accumulator and expects failure of @p kind.
  void expect_load_fails(io::LoadErrorKind kind) const {
    AuditAccumulators victim(registry_, options());
    const CheckpointLoad load = load_into(victim);
    ASSERT_FALSE(load.ok);
    ASSERT_TRUE(load.error.has_value());
    EXPECT_EQ(load.error->kind, kind) << load.error->detail;
  }

  static std::string json_of(const AuditAccumulators& acc) {
    return AuditAccumulators::to_json(acc.seal());
  }

  static std::vector<char> read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>((std::istreambuf_iterator<char>(in)),
                             std::istreambuf_iterator<char>());
  }
  static void write_bytes(const std::string& path, const std::vector<char>& b) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(b.data(), static_cast<std::streamsize>(b.size()));
  }
};

TEST_F(CheckpointTest, RoundTripRestoresByteIdenticalState) {
  AuditAccumulators acc = populated();
  ASSERT_EQ(acc.log_size(), 36u);
  CheckpointLog log;
  std::string error;
  ASSERT_TRUE(save_checkpoint(acc, path_, log, &error)) << error;
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));  // renamed away
  EXPECT_EQ(log.records, acc.log_size());
  EXPECT_EQ(std::filesystem::file_size(segment_),
            acc.log_size() * AuditAccumulators::kLogRecordBytes);

  AuditAccumulators restored(registry_, options());
  const CheckpointLoad load = load_into(restored);
  ASSERT_TRUE(load.ok) << (load.error ? load.error->detail : "");
  EXPECT_EQ(load.seq, acc.last_seq());
  EXPECT_EQ(load.log.records, log.records);
  EXPECT_EQ(load.log.checksum, log.checksum);

  std::vector<std::uint8_t> a, b;
  acc.encode(a);
  restored.encode(b);
  EXPECT_EQ(a, b);
  a.clear();
  b.clear();
  acc.encode_log(0, a);
  restored.encode_log(0, b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(json_of(restored), json_of(acc));
}

TEST_F(CheckpointTest, MissingFileIsFileOpen) {
  AuditAccumulators acc(registry_, options());
  const CheckpointLoad load = load_into(acc);
  ASSERT_FALSE(load.ok);
  ASSERT_TRUE(load.error.has_value());
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kFileOpen);
}

TEST_F(CheckpointTest, EveryTruncationFailsTyped) {
  saved();
  const std::vector<char> full = read_bytes(path_);
  ASSERT_GT(full.size(), 56u);  // 56-byte header plus a payload

  for (std::size_t len = 0; len < full.size(); len += 13) {
    write_bytes(path_, std::vector<char>(full.begin(),
                                         full.begin() + static_cast<long>(len)));
    AuditAccumulators victim(registry_, options());
    const CheckpointLoad load = load_into(victim);
    ASSERT_FALSE(load.ok) << "len " << len;
    ASSERT_TRUE(load.error.has_value()) << "len " << len;
    EXPECT_TRUE(load.error->kind == io::LoadErrorKind::kTruncatedFile ||
                load.error->kind == io::LoadErrorKind::kBadMagic)
        << "len " << len << ": " << load.error->detail;
  }
}

TEST_F(CheckpointTest, FlippedPayloadByteFailsChecksum) {
  saved();
  std::vector<char> bytes = read_bytes(path_);
  bytes[bytes.size() - 5] = static_cast<char>(bytes[bytes.size() - 5] ^ 0x40);
  write_bytes(path_, bytes);
  expect_load_fails(io::LoadErrorKind::kSectionChecksum);
}

TEST_F(CheckpointTest, WrongMagicIsBadMagic) {
  saved();
  std::vector<char> bytes = read_bytes(path_);
  bytes[0] = 'X';
  write_bytes(path_, bytes);
  expect_load_fails(io::LoadErrorKind::kBadMagic);
}

TEST_F(CheckpointTest, VersionOneHeaderIsUnsupportedVersion) {
  // Version 1 kept the event log inside the payload; such a file must
  // fail typed so the daemon cold-starts instead of misreading it.
  saved();
  std::vector<char> bytes = read_bytes(path_);
  ASSERT_EQ(bytes[6], 2);
  bytes[6] = 1;
  write_bytes(path_, bytes);
  expect_load_fails(io::LoadErrorKind::kUnsupportedVersion);
}

TEST_F(CheckpointTest, ThresholdMismatchRefusesToResume) {
  saved();
  AccumulatorOptions other = options();
  other.neutrality.sppe_boost_threshold = 50.0;  // different rules
  AuditAccumulators victim(registry_, other);
  const CheckpointLoad load = load_checkpoint(
      victim, path_, other.fingerprint(), registry_.fingerprint());
  ASSERT_FALSE(load.ok);
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kUnsupportedVersion);
}

TEST_F(CheckpointTest, RegistryMismatchRefusesToResume) {
  saved();
  AuditAccumulators victim(registry_, options());
  const CheckpointLoad load = load_checkpoint(
      victim, path_, options().fingerprint(), registry_.fingerprint() ^ 1);
  ASSERT_FALSE(load.ok);
  EXPECT_EQ(load.error->kind, io::LoadErrorKind::kUnsupportedVersion);
}

TEST_F(CheckpointTest, OverwriteReplacesAtomically) {
  saved(6);
  saved(12);

  AuditAccumulators restored(registry_, options());
  const CheckpointLoad load = load_into(restored);
  ASSERT_TRUE(load.ok);
  EXPECT_EQ(load.seq, populated(12).last_seq());
  EXPECT_EQ(restored.blocks(), 12u);
}

// --- the event-log segment ------------------------------------------------

TEST_F(CheckpointTest, SegmentShorterThanCommittedIsTruncatedFile) {
  const CheckpointLog log = saved();
  const std::uint64_t committed = log.records * AuditAccumulators::kLogRecordBytes;
  for (const std::uint64_t len : {committed - 1, committed - 25, std::uint64_t{0}}) {
    std::filesystem::resize_file(segment_, len);
    expect_load_fails(io::LoadErrorKind::kTruncatedFile);
  }
}

TEST_F(CheckpointTest, FlippedSegmentByteFailsChecksum) {
  saved();
  std::vector<char> bytes = read_bytes(segment_);
  bytes[bytes.size() / 2] = static_cast<char>(bytes[bytes.size() / 2] ^ 0x01);
  write_bytes(segment_, bytes);
  expect_load_fails(io::LoadErrorKind::kSectionChecksum);
}

TEST_F(CheckpointTest, MissingSegmentIsTruncatedFile) {
  // Not kFileOpen: that kind is the quiet "no checkpoint" cold start,
  // and a state file that commits records without them is a defect.
  ASSERT_GT(saved().records, 0u);
  std::filesystem::remove(segment_);
  expect_load_fails(io::LoadErrorKind::kTruncatedFile);
}

TEST_F(CheckpointTest, BytesPastTheCommittedPrefixAreIgnoredThenTruncated) {
  const std::string want = json_of(populated(12));
  const AuditAccumulators longer = populated(16);
  const std::string want_longer = json_of(longer);

  // A whole record, then half of one: what a crash mid-append or between
  // the append and the rename leaves behind.
  for (const std::size_t tail : {std::size_t{25}, std::size_t{12}}) {
    SCOPED_TRACE("tail " + std::to_string(tail));
    const CheckpointLog log = saved(12);
    {
      std::ofstream out(segment_, std::ios::binary | std::ios::app);
      out << std::string(tail, '\x5a');
    }
    AuditAccumulators restored(registry_, options());
    const CheckpointLoad load = load_into(restored);
    ASSERT_TRUE(load.ok) << (load.error ? load.error->detail : "");
    EXPECT_EQ(load.log.records, log.records);
    EXPECT_EQ(load.log.checksum, log.checksum);
    EXPECT_EQ(json_of(restored), want);

    // The resumed process's next save truncates the tail before it
    // appends, so the segment holds exactly the committed records.
    CheckpointLog resumed = load.log;
    grow(restored, 812, 4);
    std::string error;
    ASSERT_TRUE(save_checkpoint(restored, path_, resumed, &error)) << error;
    EXPECT_EQ(std::filesystem::file_size(segment_),
              longer.log_size() * AuditAccumulators::kLogRecordBytes);
    AuditAccumulators reloaded(registry_, options());
    ASSERT_TRUE(load_into(reloaded).ok);
    EXPECT_EQ(json_of(reloaded), want_longer);
  }
}

TEST_F(CheckpointTest, ColdStartSaveReplacesAStaleSegment) {
  // A run that starts without recovering (no state file, or one it
  // rejected) must not append to the segment another run left behind.
  saved(12);
  std::filesystem::remove(path_);
  const AuditAccumulators fresh = populated(4);
  CheckpointLog log;
  ASSERT_TRUE(save_checkpoint(fresh, path_, log));
  EXPECT_EQ(std::filesystem::file_size(segment_),
            fresh.log_size() * AuditAccumulators::kLogRecordBytes);
  AuditAccumulators restored(registry_, options());
  ASSERT_TRUE(load_into(restored).ok);
  EXPECT_EQ(json_of(restored), json_of(fresh));
}

TEST_F(CheckpointTest, EachSaveAppendsOnlyTheNewRecords) {
  AuditAccumulators acc(registry_, options());
  CheckpointLog log;
  std::uintmax_t state_size = 0;
  std::uintmax_t segment_size = 0;
  for (int save = 0; save < 8; ++save) {
    grow(acc, 800 + 4 * static_cast<std::uint64_t>(save), 4);
    const std::uint64_t before = log.records;
    std::string error;
    ASSERT_TRUE(save_checkpoint(acc, path_, log, &error)) << error;
    EXPECT_EQ(log.records, acc.log_size());
    const std::uintmax_t grown = std::filesystem::file_size(segment_);
    EXPECT_EQ(grown - segment_size,
              (acc.log_size() - before) * AuditAccumulators::kLogRecordBytes)
        << "save " << save;
    segment_size = grown;
    // Both pools and their wallets are known from the first save on, so
    // the state file is the same size however long the log grows.
    if (save == 0) state_size = std::filesystem::file_size(path_);
    EXPECT_EQ(std::filesystem::file_size(path_), state_size) << "save " << save;
  }
  EXPECT_EQ(acc.log_size(), 96u);
  AuditAccumulators restored(registry_, options());
  ASSERT_TRUE(load_into(restored).ok);
  EXPECT_EQ(json_of(restored), json_of(acc));
}

TEST_F(CheckpointTest, SeededMutationsFailTypedOrMissTheCommittedBytes) {
  // A clean checkpoint whose segment carries a torn tail past its
  // committed prefix, so mutations can land on either side of it.
  const CheckpointLog log = saved(12);
  {
    std::ofstream out(segment_, std::ios::binary | std::ios::app);
    out << std::string(37, '\x33');
  }
  const std::vector<char> state = read_bytes(path_);
  const std::vector<char> segment = read_bytes(segment_);
  const std::size_t committed = log.records * AuditAccumulators::kLogRecordBytes;
  AuditAccumulators clean(registry_, options());
  ASSERT_TRUE(load_into(clean).ok);
  const std::string want = json_of(clean);

  Rng rng(20261018);
  int intact_loads = 0;
  int failed_loads = 0;
  for (int iter = 0; iter < 600; ++iter) {
    const bool on_state = rng.uniform_below(2) == 0;
    std::vector<char> bytes = on_state ? state : segment;
    const std::size_t at = rng.uniform_below(bytes.size());
    std::string what;
    switch (rng.uniform_below(3)) {
      case 0:
        bytes[at] = static_cast<char>(bytes[at] ^ (1 + rng.uniform_below(255)));
        what = "flip at " + std::to_string(at);
        break;
      case 1:
        bytes.resize(at);
        what = "truncate to " + std::to_string(at);
        break;
      default: {
        const std::size_t end = at + 1 + rng.uniform_below(bytes.size() - at);
        std::fill(bytes.begin() + static_cast<long>(at),
                  bytes.begin() + static_cast<long>(end), '\0');
        what = "zero [" + std::to_string(at) + ", " + std::to_string(end) + ")";
        break;
      }
    }
    write_bytes(path_, on_state ? bytes : state);
    write_bytes(segment_, on_state ? segment : bytes);
    SCOPED_TRACE(std::string(on_state ? "state " : "segment ") + what);

    // Intact: every byte a load reads is unchanged — the whole state
    // file and the segment's committed prefix.
    const bool intact =
        on_state ? bytes == state
                 : bytes.size() >= committed &&
                       std::equal(segment.begin(),
                                  segment.begin() + static_cast<long>(committed),
                                  bytes.begin());
    AuditAccumulators victim(registry_, options());
    const CheckpointLoad load = load_into(victim);
    if (intact) {
      ++intact_loads;
      ASSERT_TRUE(load.ok) << (load.error ? load.error->detail : "");
      EXPECT_EQ(json_of(victim), want);
    } else {
      ++failed_loads;
      ASSERT_FALSE(load.ok);
      ASSERT_TRUE(load.error.has_value());
      const io::LoadErrorKind kind = load.error->kind;
      EXPECT_TRUE(kind == io::LoadErrorKind::kBadMagic ||
                  kind == io::LoadErrorKind::kUnsupportedVersion ||
                  kind == io::LoadErrorKind::kTruncatedFile ||
                  kind == io::LoadErrorKind::kSectionChecksum)
          << load.error->detail;
    }
  }
  // Both outcomes occur, so neither branch above is vacuous.
  EXPECT_GT(intact_loads, 0);
  EXPECT_GT(failed_loads, 0);
}

}  // namespace
}  // namespace cn::daemon
