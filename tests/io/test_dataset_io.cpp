#include "io/dataset_io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

#include "../helpers.hpp"
#include "core/ppe.hpp"
#include "sim/dataset.hpp"
#include "util/csv.hpp"

namespace cn::io {
namespace {

std::vector<std::string> file_lines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_file_lines(const std::string& path,
                      const std::vector<std::string>& lines) {
  std::ofstream out(path, std::ios::trunc);
  for (const auto& line : lines) out << line << '\n';
}

void append_line(const std::string& path, const std::string& line) {
  std::ofstream out(path, std::ios::app);
  out << line << '\n';
}

std::string upper_case(std::string text) {
  for (char& c : text) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return text;
}

/// Rewrites the first (txid) field of every data row of @p path in upper
/// case: the same txid, spelled differently.
void upper_case_txid_column(const std::string& path) {
  auto lines = file_lines(path);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::size_t comma = lines[i].find(',');
    lines[i] = upper_case(lines[i].substr(0, comma)) + lines[i].substr(comma);
  }
  write_file_lines(path, lines);
}

class DatasetIoTest : public ::testing::Test {
 protected:
  // Suffix with the test name: ctest shards gtest cases into separate
  // processes, so a shared directory would race under `ctest -j`.
  std::string dir_ =
      ::testing::TempDir() + "/cn_io_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  void SetUp() override { std::filesystem::remove_all(dir_); }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  btc::Chain three_block_chain() const {
    btc::Chain chain(100);
    chain.append(cn::test::block_with_rates(100, {9.0, 5.0, 2.0}, "/F2Pool/", 600));
    chain.append(cn::test::block_with_rates(101, {}, "", 1200));
    chain.append(cn::test::block_with_rates(102, {7.0}, "/ViaBTC/", 1900));
    return chain;
  }
};

TEST_F(DatasetIoTest, ChainRoundTripsExactly) {
  btc::Chain original(100);
  original.append(cn::test::block_with_rates(100, {9.0, 5.0, 2.0}, "/F2Pool/", 600));
  original.append(cn::test::block_with_rates(101, {}, "", 1200));  // empty, anonymous
  original.append(cn::test::block_with_rates(102, {7.0}, "/ViaBTC/", 1900));

  ASSERT_TRUE(export_chain(original, dir_));
  const auto loaded = import_chain(dir_, LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());

  ASSERT_EQ(loaded->size(), original.size());
  for (std::size_t b = 0; b < original.size(); ++b) {
    const auto& ob = original.blocks()[b];
    const auto& lb = loaded->blocks()[b];
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
}

TEST_F(DatasetIoTest, CpfpStructureSurvivesRoundTrip) {
  // The audit's CPFP detection depends on input linkage; verify an
  // exported+imported chain yields identical PPE.
  const auto parent = cn::test::tx_with_rate(1.0, 250, 0, 8801);
  const auto child = btc::make_child_payment(10, 250, btc::Satoshi{10'000}, parent,
                                             btc::Address::derive("d"),
                                             btc::Satoshi{100}, 8802);
  btc::Coinbase cb;
  cb.tag = "/TestPool/";
  btc::Chain original(1);
  original.append(btc::Block(1, 600, cb,
                             {parent, child, cn::test::tx_with_rate(20, 250, 0, 8803),
                              cn::test::tx_with_rate(9, 250, 0, 8804)}));

  ASSERT_TRUE(export_chain(original, dir_));
  const auto loaded = import_chain(dir_, LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());

  EXPECT_EQ(loaded->blocks()[0].cpfp_positions(),
            original.blocks()[0].cpfp_positions());
  EXPECT_EQ(core::block_ppe(loaded->blocks()[0]),
            core::block_ppe(original.blocks()[0]));
}

TEST_F(DatasetIoTest, SimulatedDatasetRoundTrips) {
  const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kA, 5, 0.03);
  ASSERT_TRUE(export_chain(world.chain, dir_));
  const auto loaded = import_chain(dir_, LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->size(), world.chain.size());
  EXPECT_EQ(loaded->total_tx_count(), world.chain.total_tx_count());
  // Audit measures agree exactly.
  EXPECT_EQ(core::chain_ppe(cn::test::dataset_of(*loaded)),
            core::chain_ppe(cn::test::dataset_of(world.chain)));
  // Re-sealed headers form a valid chain with identical Merkle roots.
  EXPECT_TRUE(loaded->verify_integrity());
  EXPECT_EQ(loaded->tip_hash(), world.chain.tip_hash());
}

TEST_F(DatasetIoTest, SnapshotsRoundTrip) {
  node::SnapshotSeries series;
  series.record({15, 3, 700});
  series.record({30, 5, 1400});
  ASSERT_TRUE(export_snapshots(series, dir_ + ".csv"));
  const auto loaded = import_snapshots(dir_ + ".csv", LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->size(), 2u);
  EXPECT_EQ(loaded->stats()[1].total_vsize, 1400u);
  std::filesystem::remove(dir_ + ".csv");
}

TEST_F(DatasetIoTest, FirstSeenRoundTrips) {
  FirstSeenMap map;
  map.emplace(btc::Txid::hash_of("a"), 100);
  map.emplace(btc::Txid::hash_of("b"), 250);
  ASSERT_TRUE(export_first_seen(map, dir_ + ".csv"));
  const auto loaded = import_first_seen(dir_ + ".csv", LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, map);
  std::filesystem::remove(dir_ + ".csv");
}

TEST_F(DatasetIoTest, ImportMissingDirectoryFails) {
  EXPECT_FALSE(import_chain("/nonexistent-dir-xyz", LoadPolicy::kStrict).has_value());
  EXPECT_FALSE(import_snapshots("/nonexistent-dir-xyz/s.csv", LoadPolicy::kStrict).has_value());
  EXPECT_FALSE(import_first_seen("/nonexistent-dir-xyz/f.csv", LoadPolicy::kStrict).has_value());
}

TEST_F(DatasetIoTest, ImportRejectsCorruptTxCount) {
  btc::Chain original(1);
  original.append(cn::test::block_with_rates(1, {5.0, 3.0}, "/P/", 600));
  ASSERT_TRUE(export_chain(original, dir_));
  // Corrupt: truncate txs.csv to header only.
  {
    CsvWriter csv(dir_ + "/txs.csv");
    csv.header({"height", "position", "txid", "issued", "vsize", "fee_sat"});
  }
  EXPECT_FALSE(import_chain(dir_, LoadPolicy::kStrict).has_value());
}

TEST(CsvReader, ParsesQuotedFields) {
  const std::string path = ::testing::TempDir() + "/cn_reader.csv";
  {
    cn::CsvWriter csv(path);
    csv.field("a,b").field("line\nbreak").field("say \"hi\"");
    csv.end_row();
    csv.field("plain").field(std::int64_t{42});
    csv.end_row();
  }
  cn::CsvReader reader(path);
  std::vector<std::string_view> row;
  ASSERT_TRUE(reader.next_row(row));
  ASSERT_EQ(row.size(), 3u);
  EXPECT_EQ(row[0], "a,b");
  EXPECT_EQ(row[1], "line\nbreak");
  EXPECT_EQ(row[2], "say \"hi\"");
  ASSERT_TRUE(reader.next_row(row));
  EXPECT_EQ(row[1], "42");
  EXPECT_FALSE(reader.next_row(row));
  std::filesystem::remove(path);
}

TEST_F(DatasetIoTest, DuplicateBlockHeightIsSurfacedNotSwallowed) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  const std::string blocks = dir_ + "/blocks.csv";
  const auto lines = file_lines(blocks);
  append_line(blocks, lines[1]);  // height 100 again, on line 5

  const auto strict = import_chain(dir_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kDuplicateHeight);
  EXPECT_EQ(strict.report.first_error()->file, blocks);
  EXPECT_EQ(strict.report.first_error()->line, 5u);

  const auto lenient = import_chain(dir_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->size(), 3u);  // first occurrence wins
  EXPECT_EQ(lenient.report.rows_skipped, 1u);
  EXPECT_FALSE(lenient.report.clean());
}

TEST_F(DatasetIoTest, DuplicateTxPositionIsSurfacedNotSwallowed) {
  const auto original = three_block_chain();
  ASSERT_TRUE(export_chain(original, dir_));
  const std::string txs = dir_ + "/txs.csv";
  // A fresh txid claiming an already-taken (height, position) slot.
  append_line(txs, "102,0," + btc::Txid::hash_of("impostor").to_hex() +
                       ",0,250,1000");

  const auto strict = import_chain(dir_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind,
            LoadErrorKind::kDuplicateTxPosition);
  EXPECT_EQ(strict.report.first_error()->file, txs);

  const auto lenient = import_chain(dir_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  ASSERT_EQ(lenient->size(), 3u);
  EXPECT_EQ(lenient->blocks()[2].txs()[0].id(), original.blocks()[2].txs()[0].id());
}

TEST_F(DatasetIoTest, DuplicateTxidIsSurfacedNotSwallowed) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  const std::string txs = dir_ + "/txs.csv";
  const auto lines = file_lines(txs);
  append_line(txs, lines[1]);  // full duplicate of the first tx row

  const auto strict = import_chain(dir_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kDuplicateTxid);

  const auto lenient = import_chain(dir_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->total_tx_count(), three_block_chain().total_tx_count());
}

TEST_F(DatasetIoTest, DuplicateTxidIsFoundByValueNotSpelling) {
  const auto original = three_block_chain();
  ASSERT_TRUE(export_chain(original, dir_));
  const std::string txs = dir_ + "/txs.csv";
  const std::size_t line = file_lines(txs).size() + 1;
  // Height 100's first txid again, upper case, in a free slot.
  append_line(txs, "102,1," + upper_case(original.blocks()[0].txs()[0].id().to_hex()) +
                       ",0,250,1000");

  const auto strict = import_chain(dir_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kDuplicateTxid);
  EXPECT_EQ(strict.report.first_error()->file, txs);
  EXPECT_EQ(strict.report.first_error()->line, line);

  const auto lenient = import_chain(dir_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->total_tx_count(), original.total_tx_count());
  EXPECT_EQ(lenient.report.rows_skipped, 1u);
}

TEST_F(DatasetIoTest, UpperCaseTxidsAttachInputsAndOutputs) {
  const auto original = three_block_chain();
  ASSERT_TRUE(export_chain(original, dir_));
  upper_case_txid_column(dir_ + "/inputs.csv");
  upper_case_txid_column(dir_ + "/outputs.csv");

  const auto loaded = import_chain(dir_, LoadPolicy::kStrict);
  ASSERT_TRUE(loaded.has_value()) << loaded.report.summary();
  EXPECT_TRUE(loaded.report.clean());
  for (std::size_t b = 0; b < original.size(); ++b) {
    for (std::size_t i = 0; i < original.blocks()[b].txs().size(); ++i) {
      const btc::Transaction& want = original.blocks()[b].txs()[i];
      const btc::Transaction& got = loaded->blocks()[b].txs()[i];
      ASSERT_FALSE(want.inputs().empty());
      ASSERT_EQ(got.inputs().size(), want.inputs().size());
      EXPECT_EQ(got.inputs()[0].prev_txid, want.inputs()[0].prev_txid);
      EXPECT_EQ(got.inputs()[0].owner, want.inputs()[0].owner);
      ASSERT_EQ(got.outputs().size(), want.outputs().size());
      EXPECT_EQ(got.outputs()[0].to, want.outputs()[0].to);
    }
  }
  EXPECT_EQ(loaded->tip_hash(), original.tip_hash());
}

TEST_F(DatasetIoTest, OrphanInputAndOutputRowsAreDroppedAfterInterning) {
  const auto original = three_block_chain();
  ASSERT_TRUE(export_chain(original, dir_));
  const std::string stranger = btc::Txid::hash_of("not in txs.csv").to_hex();
  const btc::Address owner = btc::Address::derive("orphan owner");
  const btc::Address payee = btc::Address::derive("orphan payee");
  append_line(dir_ + "/inputs.csv", stranger + "," + stranger + ",0," +
                                        std::to_string(owner.value));
  append_line(dir_ + "/outputs.csv", stranger + "," + std::to_string(payee.value) + ",5");

  btc::AddressTable addresses;
  const auto loaded = import_chain(dir_, LoadPolicy::kStrict, &addresses);
  ASSERT_TRUE(loaded.has_value()) << loaded.report.summary();
  EXPECT_TRUE(loaded.report.clean());  // dropped without a defect
  EXPECT_EQ(loaded->tip_hash(), original.tip_hash());
  // Interned where the rows stand: the orphan input owner after every
  // input owner, the orphan payee last.
  EXPECT_NE(addresses.lookup(owner), btc::kNoAddressId);
  EXPECT_EQ(addresses.lookup(payee), addresses.size() - 1);
}

TEST_F(DatasetIoTest, BlocksCsvThatIsADirectoryIsAMissingHeader) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  const std::string blocks = dir_ + "/blocks.csv";
  std::filesystem::remove(blocks);
  std::filesystem::create_directories(blocks);

  for (const LoadPolicy policy : {LoadPolicy::kStrict, LoadPolicy::kLenient}) {
    const auto loaded = import_chain(dir_, policy);
    EXPECT_FALSE(loaded.has_value());
    ASSERT_NE(loaded.report.first_error(), nullptr);
    EXPECT_EQ(loaded.report.first_error()->kind, LoadErrorKind::kMissingHeader);
    EXPECT_EQ(loaded.report.first_error()->file, blocks);
    EXPECT_EQ(loaded.report.first_error()->detail, "empty file");
  }
}

TEST_F(DatasetIoTest, LenientRepairsOutOfOrderBlockRows) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  const std::string blocks = dir_ + "/blocks.csv";
  auto lines = file_lines(blocks);
  std::swap(lines[1], lines[2]);  // heights now 101, 100, 102
  write_file_lines(blocks, lines);

  const auto strict = import_chain(dir_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kOutOfOrderRow);
  EXPECT_EQ(strict.report.first_error()->line, 3u);

  const auto lenient = import_chain(dir_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  ASSERT_EQ(lenient->size(), 3u);
  EXPECT_EQ(lenient->blocks()[0].height(), 100u);
  EXPECT_EQ(lenient->blocks()[2].height(), 102u);
  EXPECT_EQ(lenient.report.rows_repaired, 1u);
}

TEST_F(DatasetIoTest, TxCountMismatchPinpointsTheBlockRow) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  const std::string txs = dir_ + "/txs.csv";
  auto lines = file_lines(txs);
  // Drop height 100's last tx (position 2): the surviving positions are
  // still 0..1, so only the block row's tx_count betrays the loss.
  lines.erase(lines.begin() + 3);
  write_file_lines(txs, lines);

  const auto strict = import_chain(dir_, LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kTxCountMismatch);
  EXPECT_EQ(strict.report.first_error()->file, dir_ + "/blocks.csv");
  EXPECT_EQ(strict.report.first_error()->line, 2u);  // height 100's row

  const auto lenient = import_chain(dir_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  EXPECT_EQ(lenient->blocks()[0].tx_count(), 2u);  // trusts the rows present
}

TEST_F(DatasetIoTest, LenientReconstructsMissingBlockRow) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  const std::string blocks = dir_ + "/blocks.csv";
  auto lines = file_lines(blocks);
  lines.erase(lines.begin() + 2);  // delete height 101's block row
  write_file_lines(blocks, lines);

  EXPECT_FALSE(import_chain(dir_, LoadPolicy::kStrict).has_value());

  const auto lenient = import_chain(dir_, LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  ASSERT_EQ(lenient->size(), 3u);  // placeholder keeps the chain contiguous
  EXPECT_EQ(lenient->blocks()[1].height(), 101u);
  // Interpolated between neighbours 600 and 1900.
  EXPECT_GT(lenient->blocks()[1].mined_at(), 600);
  EXPECT_LT(lenient->blocks()[1].mined_at(), 1900);
}

TEST_F(DatasetIoTest, LenientSortsOutOfOrderSnapshots) {
  std::filesystem::create_directories(dir_);
  write_file_lines(dir_ + "/snapshots.csv",
                   {"time,tx_count,total_vsize", "15,1,100", "45,3,300",
                    "30,2,200", "45,9,900"});

  const auto strict = import_snapshots(dir_ + "/snapshots.csv", LoadPolicy::kStrict);
  EXPECT_FALSE(strict.has_value());
  ASSERT_NE(strict.report.first_error(), nullptr);
  EXPECT_EQ(strict.report.first_error()->kind, LoadErrorKind::kOutOfOrderRow);
  EXPECT_EQ(strict.report.first_error()->line, 4u);

  const auto lenient =
      import_snapshots(dir_ + "/snapshots.csv", LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  ASSERT_EQ(lenient->size(), 3u);  // sorted, duplicate time 45 dropped
  EXPECT_EQ(lenient->stats()[0].time, 15);
  EXPECT_EQ(lenient->stats()[1].time, 30);
  EXPECT_EQ(lenient->stats()[2].time, 45);
  EXPECT_EQ(lenient->stats()[2].tx_count, 3u);  // first occurrence wins
}

TEST_F(DatasetIoTest, FirstSeenDuplicateFirstWins) {
  std::filesystem::create_directories(dir_);
  const std::string id = btc::Txid::hash_of("dup").to_hex();
  write_file_lines(dir_ + "/fs.csv",
                   {"txid,first_seen", id + ",100", id + ",999"});

  EXPECT_FALSE(import_first_seen(dir_ + "/fs.csv", LoadPolicy::kStrict).has_value());

  const auto lenient = import_first_seen(dir_ + "/fs.csv", LoadPolicy::kLenient);
  ASSERT_TRUE(lenient.has_value());
  ASSERT_EQ(lenient->size(), 1u);
  const auto kept = lenient->find(*btc::Txid::from_hex(id));
  ASSERT_NE(kept, lenient->end());
  EXPECT_EQ(kept->second, 100);
}

TEST_F(DatasetIoTest, ExportIsAtomicNoTmpFilesRemain) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp")
        << "temporary left behind: " << entry.path();
  }
}

TEST_F(DatasetIoTest, FailedExportLeavesNoFinalFiles) {
  // Occupy blocks.csv.tmp with a directory so the writer cannot open it.
  std::filesystem::create_directories(dir_ + "/blocks.csv.tmp");
  std::string error;
  EXPECT_FALSE(export_chain(three_block_chain(), dir_, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/blocks.csv"));
  EXPECT_FALSE(std::filesystem::exists(dir_ + "/txs.csv"));
}

TEST_F(DatasetIoTest, CreateDirectoriesFailureIsDiagnosed) {
  // A regular file where the directory should go.
  std::filesystem::create_directories(dir_);
  { std::ofstream(dir_ + "/occupied") << "x"; }
  std::string error;
  EXPECT_FALSE(export_chain(three_block_chain(), dir_ + "/occupied/sub", &error));
  EXPECT_NE(error.find("create_directories"), std::string::npos) << error;
}

TEST_F(DatasetIoTest, LoadReportSummaryNamesTheFirstDefect) {
  ASSERT_TRUE(export_chain(three_block_chain(), dir_));
  const auto lines = file_lines(dir_ + "/blocks.csv");
  append_line(dir_ + "/blocks.csv", lines[1]);
  const auto strict = import_chain(dir_, LoadPolicy::kStrict);
  const std::string summary = strict.report.summary();
  EXPECT_NE(summary.find("first:"), std::string::npos) << summary;
  EXPECT_NE(summary.find("blocks.csv:5"), std::string::npos) << summary;
  EXPECT_NE(summary.find("duplicate-height"), std::string::npos) << summary;
}

TEST(TxidHex, RoundTripAndRejection) {
  const auto id = btc::Txid::hash_of("roundtrip");
  const auto parsed = btc::Txid::from_hex(id.to_hex());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, id);
  EXPECT_FALSE(btc::Txid::from_hex("abcd").has_value());
  EXPECT_FALSE(btc::Txid::from_hex(std::string(64, 'z')).has_value());
}

}  // namespace
}  // namespace cn::io
