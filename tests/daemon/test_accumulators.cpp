// AuditAccumulators (daemon/accumulators.hpp): cnauditd's running
// scorecards. Properties: self-interest tallies are prequential (wallets
// count only from the block that announced them); sealing is
// deterministic and idempotent; the sealed pair violations equal a full
// core recount of the event log at every seal, across checkpoints and
// out-of-order feeds; and the checkpoint encodings (the state, and the
// event log's records) round-trip byte-exactly, keep their pinned
// layouts, and reject garbage with a message instead of crashing. The sealed scorecards themselves are
// pinned per golden world (tests/sim/test_golden_worlds.cpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "../helpers.hpp"
#include "btc/coinbase_tags.hpp"
#include "core/audit_dataset.hpp"
#include "core/congestion.hpp"
#include "core/pair_violations.hpp"
#include "daemon/accumulators.hpp"
#include "sim/dataset.hpp"
#include "util/hex.hpp"
#include "util/sha256.hpp"

namespace cn::daemon {
namespace {

const core::FirstSeenFn kNoFirstSeen =
    [](const btc::Txid&) -> std::optional<SimTime> { return std::nullopt; };

AccumulatorOptions test_options() {
  AccumulatorOptions options;
  options.neutrality.min_blocks = 2;
  return options;
}

/// A deterministic mixed-pool chain: 24 blocks over two identified pools
/// plus an unidentified miner, with fee patterns that exercise the boost
/// threshold and the sub-floor rule.
btc::Chain mixed_chain() {
  btc::Chain chain(500);
  for (std::uint64_t h = 500; h < 524; ++h) {
    std::vector<double> rates;
    switch (h % 4) {
      case 0: rates = {9.0, 7.0, 5.0, 3.0}; break;     // descending (clean)
      case 1: rates = {2.0, 8.0, 6.0}; break;          // a hoisted low payer
      case 2: rates = {5.0, 0.5, 4.0}; break;          // a sub-floor tx
      default: rates = {6.0}; break;
    }
    const char* tag = h % 3 == 0   ? "/F2Pool/"
                      : h % 3 == 1 ? "/ViaBTC/"
                                   : "/NoSuchPool/";
    chain.append(cn::test::block_with_rates(
        h, rates, tag, static_cast<SimTime>(600 * (h - 499))));
  }
  return chain;
}

AuditAccumulators accumulate(const btc::Chain& chain,
                             const btc::CoinbaseTagRegistry& registry,
                             const core::FirstSeenFn& first_seen = kNoFirstSeen) {
  AuditAccumulators acc(registry, test_options());
  std::uint64_t seq = 0;
  for (const btc::Block& block : chain.blocks()) {
    acc.apply_block(block, first_seen, ++seq);
  }
  return acc;
}

TEST(AuditAccumulators, SelfInterestIsPrequential) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditAccumulators acc(registry, test_options());

  // Block 1: a payment TO F2Pool's reward wallet, mined by ViaBTC,
  // BEFORE F2Pool ever announced that wallet. Must not count.
  {
    std::vector<btc::Transaction> txs;
    txs.push_back(cn::test::tx_with_rate(5.0, 250, 0, 1, "alice",
                                         "/F2Pool//reward"));
    btc::Coinbase cb;
    cb.tag = "/ViaBTC/";
    cb.reward_address = btc::Address::derive("/ViaBTC//reward");
    cb.reward = btc::Satoshi{625'000'000};
    acc.apply_block(btc::Block(100, 600, std::move(cb), std::move(txs)),
                    kNoFirstSeen, 1);
  }
  // Block 2: F2Pool announces its wallet (coinbase reward address).
  acc.apply_block(cn::test::block_with_rates(101, {4.0}, "/F2Pool/", 1200),
                  kNoFirstSeen, 2);
  // Block 3: the same payment shape again, mined by ViaBTC — now the
  // wallet is known, so it is a c-block for F2Pool (y += 1, x += 0).
  {
    std::vector<btc::Transaction> txs;
    txs.push_back(cn::test::tx_with_rate(5.0, 250, 0, 2, "alice",
                                         "/F2Pool//reward"));
    btc::Coinbase cb;
    cb.tag = "/ViaBTC/";
    cb.reward_address = btc::Address::derive("/ViaBTC//reward");
    cb.reward = btc::Satoshi{625'000'000};
    acc.apply_block(btc::Block(102, 1800, std::move(cb), std::move(txs)),
                    kNoFirstSeen, 3);
  }
  // Block 4: F2Pool commits a payment to its own wallet (x and y += 1).
  // A second transaction rides along so block SPPE is defined (it is
  // empty for blocks under 2 txs) and the own-tx SPPE tally counts.
  {
    std::vector<btc::Transaction> txs;
    txs.push_back(cn::test::tx_with_rate(5.0, 250, 0, 3, "alice",
                                         "/F2Pool//reward"));
    txs.push_back(cn::test::tx_with_rate(8.0, 250, 0, 4, "carol", "dave"));
    btc::Coinbase cb;
    cb.tag = "/F2Pool/";
    cb.reward_address = btc::Address::derive("/F2Pool//reward");
    cb.reward = btc::Satoshi{625'000'000};
    acc.apply_block(btc::Block(103, 2400, std::move(cb), std::move(txs)),
                    kNoFirstSeen, 4);
  }

  ASSERT_EQ(acc.pool_count(), 2u);
  const PoolState* f2pool = nullptr;
  for (std::size_t i = 0; i < acc.pool_count(); ++i) {
    if (acc.pool(i).name == "F2Pool") f2pool = &acc.pool(i);
  }
  ASSERT_NE(f2pool, nullptr);
  EXPECT_EQ(f2pool->tally.self_y, 2u);  // blocks 3 and 4; block 1 predates the wallet
  EXPECT_EQ(f2pool->tally.self_x, 1u);  // block 4 only
  EXPECT_EQ(f2pool->tally.own_sppe_count, 1u);
}

TEST(AuditAccumulators, SnapshotsFeedCongestionAndMempoolStats) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditAccumulators acc(registry, test_options());
  // Levels relative to the 1 MB default unit: none, low, medium, high.
  acc.apply_snapshot({15, 10, 500'000}, 1);
  acc.apply_snapshot({30, 20, 1'500'000}, 2);
  acc.apply_snapshot({45, 30, 3'000'000}, 3);
  acc.apply_snapshot({60, 40, 5'000'000}, 4);

  const AuditAccumulators::Report report = acc.seal();
  EXPECT_EQ(report.snapshots, 4u);
  EXPECT_EQ(report.mean_pending_txs, 25.0);
  EXPECT_EQ(report.max_total_vsize, 5'000'000u);
  for (int level = 0; level < 4; ++level) {
    EXPECT_EQ(report.congestion_levels[level], 1u) << "level " << level;
  }
  EXPECT_EQ(report.version, 4u);
}

TEST(AuditAccumulators, SealIsIdempotentAndJsonDeterministic) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const btc::Chain chain = mixed_chain();
  AuditAccumulators acc = accumulate(chain, registry);
  const std::string a = AuditAccumulators::to_json(acc.seal());
  const std::string b = AuditAccumulators::to_json(acc.seal());
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"schema\":\"cnauditd/v1\""), std::string::npos);

  // An independently accumulated copy seals to the same bytes.
  AuditAccumulators again = accumulate(chain, registry);
  EXPECT_EQ(AuditAccumulators::to_json(again.seal()), a);
}

TEST(AuditAccumulators, EncodeDecodeRoundTripsByteExactly) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const btc::Chain chain = mixed_chain();
  AuditAccumulators acc = accumulate(chain, registry, cn::test::seen_at_txid);
  acc.apply_snapshot({15, 10, 2'500'000}, 1000);

  std::vector<std::uint8_t> encoded;
  acc.encode(encoded);
  ASSERT_FALSE(encoded.empty());
  std::vector<std::uint8_t> log;
  acc.encode_log(0, log);
  ASSERT_EQ(acc.log_size(), chain.total_tx_count());
  EXPECT_EQ(log.size(), acc.log_size() * AuditAccumulators::kLogRecordBytes);
  // The state and event-log layouts are pinned. A change to either bumps
  // the checkpoint version, and a checkpoint of the old version then
  // fails typed (kUnsupportedVersion), so the daemon cold-starts instead
  // of misreading it.
  EXPECT_EQ(hex_encode(sha256(encoded)),
            "f90092e3ba65a8a325ed1a1aba8dce170dce76874d5000ddb96bf0c75d3ef3c6");
  EXPECT_EQ(hex_encode(sha256(log)),
            "c5d6c08c1d5661f26a3a5b19106467c0b27810ef99913df30c7583abc028b67e");

  AuditAccumulators restored(registry, test_options());
  std::string error;
  ASSERT_TRUE(restored.decode(encoded.data(), encoded.size(), &error)) << error;
  EXPECT_EQ(restored.log_size(), 0u);
  ASSERT_TRUE(restored.decode_log(log.data(), log.size(), &error)) << error;
  EXPECT_EQ(restored.last_seq(), acc.last_seq());
  EXPECT_EQ(restored.blocks(), acc.blocks());
  EXPECT_EQ(restored.txs(), acc.txs());
  EXPECT_EQ(restored.log_size(), acc.log_size());

  std::vector<std::uint8_t> re_encoded;
  restored.encode(re_encoded);
  EXPECT_EQ(re_encoded, encoded);
  std::vector<std::uint8_t> re_log;
  restored.encode_log(0, re_log);
  EXPECT_EQ(re_log, log);
  // Encoding from an offset appends that suffix of the log alone.
  std::vector<std::uint8_t> tail;
  restored.encode_log(restored.log_size() - 3, tail);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(),
                         log.end() - 3 * AuditAccumulators::kLogRecordBytes,
                         log.end()));
  EXPECT_EQ(AuditAccumulators::to_json(restored.seal()),
            AuditAccumulators::to_json(acc.seal()));

  // The restored accumulator keeps accumulating identically.
  AuditAccumulators parallel = accumulate(chain, registry, cn::test::seen_at_txid);
  parallel.apply_snapshot({15, 10, 2'500'000}, 1000);
  const btc::Block more =
      cn::test::block_with_rates(524, {6.0, 3.0}, "/F2Pool/", 99'000);
  restored.apply_block(more, cn::test::seen_at_txid, 1001);
  parallel.apply_block(more, cn::test::seen_at_txid, 1001);
  EXPECT_EQ(AuditAccumulators::to_json(restored.seal()),
            AuditAccumulators::to_json(parallel.seal()));
}

TEST(AuditAccumulators, DecodeRejectsGarbageWithoutCrashing) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  AuditAccumulators acc = accumulate(mixed_chain(), registry);
  std::vector<std::uint8_t> encoded;
  acc.encode(encoded);

  // Every truncation length (stride 7 keeps the loop fast) must fail
  // cleanly — no crash, no OOB, an error message set.
  for (std::size_t len = 0; len < encoded.size(); len += 7) {
    AuditAccumulators victim(registry, test_options());
    std::string error;
    EXPECT_FALSE(victim.decode(encoded.data(), len, &error)) << "len " << len;
    EXPECT_FALSE(error.empty()) << "len " << len;
  }
  // Trailing garbage is a defect too: the payload must consume exactly.
  std::vector<std::uint8_t> padded = encoded;
  padded.push_back(0xAB);
  AuditAccumulators victim(registry, test_options());
  std::string error;
  EXPECT_FALSE(victim.decode(padded.data(), padded.size(), &error));

  // An event log that is not a whole number of records fails the same way.
  const AuditAccumulators seen =
      accumulate(mixed_chain(), registry, cn::test::seen_at_txid);
  std::vector<std::uint8_t> log;
  seen.encode_log(0, log);
  for (const std::size_t cut : {std::size_t{1}, AuditAccumulators::kLogRecordBytes - 1}) {
    AuditAccumulators partial(registry, test_options());
    error.clear();
    EXPECT_FALSE(partial.decode_log(log.data(), log.size() - cut, &error)) << "cut " << cut;
    EXPECT_FALSE(error.empty()) << "cut " << cut;
  }
}

// --- pair violations, seal by seal ----------------------------------------

/// A small simulated world: observer first-seen times, in-block CPFP,
/// a few dozen blocks.
const sim::SimResult& seen_world() {
  static const sim::SimResult world = sim::make_dataset(sim::DatasetKind::kA, 5, 0.07);
  return world;
}

core::FirstSeenFn world_first_seen() {
  return [](const btc::Txid& id) { return seen_world().observer.first_seen(id); };
}

/// Applies blocks to an accumulator while keeping the event log it should
/// hold (built by core's collect_seen_txs), and checks a seal against a
/// full core recount of that log.
class PairLogChecker {
 public:
  void apply(AuditAccumulators& acc, const btc::Block& block) {
    acc.apply_block(block, first_seen_, ++seq_);
    btc::Chain one(block.height());
    one.append(block);
    const auto seen = core::collect_seen_txs(
        core::AuditDataset::build(one, btc::CoinbaseTagRegistry{}, 1), first_seen_);
    log_.insert(log_.end(), seen.begin(), seen.end());
  }

  void expect_seal_matches_recount(const AuditAccumulators& acc,
                                   const std::string& label) const {
    const core::PairViolationStats want =
        core::count_pair_violations(log_, kPairEpsilon, kPairExcludeCpfp);
    const core::PairViolationStats got = acc.seal().pairs;
    EXPECT_EQ(got.predicted_pairs, want.predicted_pairs) << label;
    EXPECT_EQ(got.violations, want.violations) << label;
  }

 private:
  core::FirstSeenFn first_seen_ = world_first_seen();
  std::vector<core::SeenTx> log_;
  std::uint64_t seq_ = 0;
};

std::string pair_label(std::size_t every, std::size_t block) {
  return "seal every " + std::to_string(every) + " after block " +
         std::to_string(block);
}

TEST(AuditAccumulators, SealedPairsMatchAFullRecountAtEverySeal) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const std::span<const btc::Block> blocks = seen_world().chain.blocks();
  ASSERT_GE(blocks.size(), 40u);

  for (const std::size_t every : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    AuditAccumulators acc(registry, test_options());
    PairLogChecker checker;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      checker.apply(acc, blocks[i]);
      if ((i + 1) % every == 0) {
        checker.expect_seal_matches_recount(acc, pair_label(every, i));
      }
    }
    checker.expect_seal_matches_recount(acc, pair_label(every, blocks.size()));
  }

  // The world exercises what the count depends on: CPFP flags to filter
  // and violations to find.
  const std::vector<core::SeenTx> log = core::collect_seen_txs(
      core::AuditDataset::build(seen_world().chain, registry, 1), world_first_seen());
  EXPECT_TRUE(std::any_of(log.begin(), log.end(),
                          [](const core::SeenTx& t) { return t.cpfp || t.cpfp_parent; }));
  EXPECT_GT(core::count_pair_violations(log, 0, true).violations, 0u);
}

TEST(AuditAccumulators, SealedPairsStayExactAcrossACheckpoint) {
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const std::span<const btc::Block> blocks = seen_world().chain.blocks();
  const std::size_t cut = blocks.size() / 2;

  for (const std::size_t every : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
    AuditAccumulators acc(registry, test_options());
    PairLogChecker checker;
    for (std::size_t i = 0; i < cut; ++i) {
      checker.apply(acc, blocks[i]);
      if ((i + 1) % every == 0) acc.seal();
    }
    std::vector<std::uint8_t> encoded;
    std::vector<std::uint8_t> log;
    acc.encode(encoded);
    acc.encode_log(0, log);
    ASSERT_GT(acc.log_size(), 0u);
    AuditAccumulators restored(registry, test_options());
    std::string error;
    ASSERT_TRUE(restored.decode(encoded.data(), encoded.size(), &error)) << error;
    ASSERT_TRUE(restored.decode_log(log.data(), log.size(), &error)) << error;

    // The restored accumulator keeps sealing exactly; the original keeps
    // pace so the final bytes can be compared.
    for (std::size_t i = cut; i < blocks.size(); ++i) {
      acc.apply_block(blocks[i], world_first_seen(), i + 1);
      checker.apply(restored, blocks[i]);
      if ((i + 1) % every == 0) {
        checker.expect_seal_matches_recount(restored, "restored, " + pair_label(every, i));
      }
    }
    EXPECT_EQ(AuditAccumulators::to_json(restored.seal()),
              AuditAccumulators::to_json(acc.seal()));
  }
}

TEST(AuditAccumulators, SealedPairsStayExactOnANonMonotoneFeed) {
  // Chain offsets 10, 11, 5, 11: the third and fourth seals see a block
  // that is not above everything counted, then the feed resumes in order.
  const auto registry = btc::CoinbaseTagRegistry::paper_registry();
  const std::span<const btc::Block> blocks = seen_world().chain.blocks();
  ASSERT_GE(blocks.size(), 20u);
  const std::vector<std::size_t> order = {10, 11, 5, 11, 12, 13, 14, 15};

  AuditAccumulators acc(registry, test_options());
  PairLogChecker checker;
  for (const std::size_t index : order) {
    checker.apply(acc, blocks[index]);
    checker.expect_seal_matches_recount(acc, pair_label(1, index));
  }
}

TEST(AuditAccumulators, OptionsFingerprintSeparatesThresholds) {
  AccumulatorOptions a = test_options();
  AccumulatorOptions b = test_options();
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  b.neutrality.sppe_boost_threshold = 75.0;
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  AccumulatorOptions c = test_options();
  c.neutrality.alpha = 0.01;
  EXPECT_NE(a.fingerprint(), c.fingerprint());
  // The defaults' fingerprint is pinned, so a checkpoint cnauditd wrote
  // before still resumes.
  EXPECT_EQ(AccumulatorOptions{}.fingerprint(), 14861574499197371829ull);
}

}  // namespace
}  // namespace cn::daemon
