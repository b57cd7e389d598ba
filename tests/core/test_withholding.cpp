// Block-withholding detector (core/withholding.hpp), one rule at a time,
// on hand-built chains and first-seen logs: the 10 s lead time, the
// block's fee floor, the empty- and full-block exclusions, the
// 20-candidate minimum, the 40% missing threshold, the base rate, and
// the worst-first sort.
#include "core/withholding.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "../helpers.hpp"

namespace cn::core {
namespace {

/// How long before its block a transaction is first seen by default.
constexpr SimTime kSeenBefore = 50;
/// Time between consecutive blocks of a World.
constexpr SimTime kBlockGap = 100;
/// vsize of the never-seen transaction in the opening block; later blocks
/// are measured against it (the full-block rule).
constexpr std::uint32_t kLargestVsize = 100'000;

/// A chain and the observer's first-seen log, built block by block.
///
/// The chain opens with one large block holding a never-seen
/// transaction, so the blocks after it are judged unless a test makes
/// them large. Each block may leave "missing" transactions behind: seen
/// before it, left out of it, and confirmed in the next block.
class World {
 public:
  World() {
    next_block("", {tx(1.0, std::nullopt, kLargestVsize)});
  }

  /// A payment at @p rate sat/vB, first seen at @p seen (never seen when
  /// nullopt).
  btc::Transaction tx(double rate, std::optional<SimTime> seen,
                      std::uint32_t vsize = 250) {
    btc::Transaction t = cn::test::tx_with_rate(rate, vsize, 0, ++nonce_);
    if (seen.has_value()) first_seen.emplace(t.id(), *seen);
    return t;
  }

  /// The time the next block is mined at.
  SimTime next_time() const noexcept {
    return kBlockGap * static_cast<SimTime>(chain.next_height() - 100);
  }

  /// @p n payments at @p rate, seen kSeenBefore ahead of the next block.
  std::vector<btc::Transaction> seen_txs(std::size_t n, double rate = 5.0) {
    std::vector<btc::Transaction> out;
    for (std::size_t i = 0; i < n; ++i) out.push_back(tx(rate, next_time() - kSeenBefore));
    return out;
  }

  /// Leaves @p txs out of the next block; they are confirmed in the one
  /// after it.
  void withhold(std::vector<btc::Transaction> txs) {
    for (btc::Transaction& t : txs) withheld_.push_back(std::move(t));
  }

  /// Mines the next block for @p pool (a paper-registry name; "" for an
  /// unattributed block): the transactions withheld from the previous
  /// block, then @p txs.
  void next_block(const std::string& pool, std::vector<btc::Transaction> txs) {
    std::vector<btc::Transaction> body = std::exchange(carried_, {});
    for (btc::Transaction& t : txs) body.push_back(std::move(t));
    carried_ = std::exchange(withheld_, {});
    btc::Coinbase cb;
    cb.tag = pool.empty() ? "/unknown/" : "/" + pool + "/";
    cb.reward_address = btc::Address::derive(cb.tag + "/reward");
    cb.reward = btc::Satoshi{625'000'000};
    chain.append(btc::Block(chain.next_height(), next_time(), std::move(cb),
                            std::move(body)));
  }

  /// One judged block for @p pool: 20 candidates, of which @p missing are
  /// left out.
  void judged_block(const std::string& pool, std::size_t missing) {
    const std::size_t included = 20 - missing - carried_.size();
    withhold(seen_txs(missing));
    next_block(pool, seen_txs(included));
  }

  /// Runs the detector over the finished chain.
  std::vector<WithholdingReport> reports() {
    if (!carried_.empty()) next_block("", {});
    return withholding_reports(
        cn::test::dataset_of(chain, btc::CoinbaseTagRegistry::paper_registry()),
        first_seen);
  }

  /// F2Pool's verdict, "flagged/judged" blocks, when it is the only pool
  /// reported; "none" when no pool is.
  std::string verdict() {
    const std::vector<WithholdingReport> r = reports();
    if (r.empty()) return "none";
    EXPECT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].pool, "F2Pool");
    return std::to_string(r[0].flagged) + "/" + std::to_string(r[0].blocks);
  }

  btc::Chain chain{100};
  util::FlatMap<btc::Txid, SimTime> first_seen;

 private:
  std::uint64_t nonce_ = 0;
  std::vector<btc::Transaction> withheld_;
  std::vector<btc::Transaction> carried_;
};

TEST(Withholding, ACandidateMustBeSeenTenSecondsAhead) {
  // 12 included and 7 missing are candidates; one more missing
  // transaction seen `lead` seconds before the block makes the 20th.
  for (const SimTime lead : {9, 10}) {
    World w;
    std::vector<btc::Transaction> missing = w.seen_txs(7);
    missing.push_back(w.tx(5.0, w.next_time() - lead));
    w.withhold(std::move(missing));
    w.next_block("F2Pool", w.seen_txs(12));
    EXPECT_EQ(w.verdict(), lead == 9 ? "none" : "1/1") << lead;
  }
}

TEST(Withholding, CandidatesBelowTheBlockFeeFloorAreIgnored) {
  // The block pays {2, 4, 6 x 11}: its 10th-percentile rate is 4, so the
  // 2 sat/vB transaction it includes is no candidate either. Twelve
  // included and seven missing candidates remain; an eighth missing one
  // at `rate` is a candidate only at or above the floor.
  for (const double rate : {3.9, 4.0}) {
    World w;
    std::vector<btc::Transaction> missing = w.seen_txs(7, 6.0);
    missing.push_back(w.tx(rate, w.next_time() - kSeenBefore));
    w.withhold(std::move(missing));
    std::vector<btc::Transaction> included = w.seen_txs(1, 2.0);
    for (btc::Transaction& t : w.seen_txs(1, 4.0)) included.push_back(std::move(t));
    for (btc::Transaction& t : w.seen_txs(11, 6.0)) included.push_back(std::move(t));
    w.next_block("F2Pool", std::move(included));
    EXPECT_EQ(w.verdict(), rate < 4.0 ? "none" : "1/1") << rate;
  }
}

TEST(Withholding, EmptyBlocksAreNotJudged) {
  // Twenty candidates wait; F2Pool's block leaves all of them out. With
  // one never-seen transaction the block is judged and flagged; empty,
  // it carries no mempool signal and is skipped.
  for (const bool empty : {true, false}) {
    World w;
    w.withhold(w.seen_txs(20));
    std::vector<btc::Transaction> body;
    if (!empty) body.push_back(w.tx(1.0, std::nullopt));
    w.next_block("F2Pool", std::move(body));
    EXPECT_EQ(w.verdict(), empty ? "none" : "1/1") << empty;
  }
}

TEST(Withholding, BlocksAtNinetyFivePercentOfTheLargestAreNotJudged) {
  // A flagged block (12 included, 8 missing) padded with a never-seen
  // transaction to 94,999 or 95,000 vbytes, against the opening block's
  // 100,000.
  for (const std::uint32_t total : {94'999u, 95'000u}) {
    World w;
    w.withhold(w.seen_txs(8));
    std::vector<btc::Transaction> body = w.seen_txs(12);
    body.push_back(w.tx(5.0, std::nullopt, total - 12 * 250));
    w.next_block("F2Pool", std::move(body));
    EXPECT_EQ(w.verdict(), total == 95'000u ? "none" : "1/1") << total;
  }
}

TEST(Withholding, TwentyCandidatesAreJudgedAndFortyPercentMissingIsFlagged) {
  struct Case {
    std::size_t included, missing;
    const char* verdict;
  };
  for (const Case c : {Case{11, 8, "none"}, Case{12, 8, "1/1"}, Case{13, 7, "0/1"}}) {
    World w;
    w.withhold(w.seen_txs(c.missing));
    w.next_block("F2Pool", w.seen_txs(c.included));
    EXPECT_EQ(w.verdict(), c.verdict) << c.included << " included, " << c.missing
                                      << " missing";
  }
}

TEST(Withholding, UnattributedBlocksCountTowardTheBaseRateOnly) {
  World w;
  w.judged_block("", 8);        // flagged, attributed to no pool
  w.judged_block("F2Pool", 0);  // clean
  const auto reports = w.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].pool, "F2Pool");
  EXPECT_EQ(reports[0].blocks, 1u);
  EXPECT_EQ(reports[0].flagged, 0u);
  EXPECT_DOUBLE_EQ(reports[0].base_rate, 0.5);
  EXPECT_DOUBLE_EQ(reports[0].p_value, 1.0);
}

TEST(Withholding, ReportsSortByPValueThenRateThenName) {
  // Judged blocks per pool, by block count: AntPool 80 (all flagged),
  // SlushPool 30 (one flagged), F2Pool 2, BTC.com 1 and ViaBTC 1 (one
  // flagged). The base rate is 82/114, so SlushPool's p rounds to
  // exactly 1.0 and ties the clean pools' on p; its nonzero rate puts
  // it first among them, and the clean pools follow by name.
  World w;
  for (int i = 0; i < 80; ++i) w.judged_block("AntPool", 8);
  for (int i = 0; i < 30; ++i) w.judged_block("SlushPool", i == 0 ? 8 : 0);
  for (int i = 0; i < 2; ++i) w.judged_block("F2Pool", 0);
  w.judged_block("BTC.com", 0);
  w.judged_block("ViaBTC", 8);
  const auto reports = w.reports();

  std::vector<std::string> order;
  for (const WithholdingReport& r : reports) order.push_back(r.pool);
  ASSERT_EQ(order, (std::vector<std::string>{"AntPool", "ViaBTC", "SlushPool",
                                             "BTC.com", "F2Pool"}));
  EXPECT_DOUBLE_EQ(reports[0].base_rate, 82.0 / 114.0);
  EXPECT_LT(reports[0].p_value, reports[1].p_value);
  // The ties the rate and name keys break.
  EXPECT_EQ(reports[2].flagged, 1u);
  for (std::size_t i = 2; i < 5; ++i) EXPECT_EQ(reports[i].p_value, 1.0) << i;
}

}  // namespace
}  // namespace cn::core
