#include "core/pair_violations.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace cn::core {
namespace {

SeenTx seen(SimTime t, double rate, std::uint64_t block, bool cpfp = false,
            bool cpfp_parent = false) {
  return SeenTx{t, rate, block, cpfp, cpfp_parent};
}

TEST(PairViolations, DetectsViolation) {
  // i: earlier, higher fee, LATER block than j -> violation.
  const std::vector<SeenTx> txs = {seen(0, 10.0, 5), seen(100, 2.0, 4)};
  const auto stats = count_pair_violations(txs, 0, false);
  EXPECT_EQ(stats.predicted_pairs, 1u);
  EXPECT_EQ(stats.violations, 1u);
  EXPECT_DOUBLE_EQ(stats.fraction(), 1.0);
}

TEST(PairViolations, NormCompliantPairNotCounted) {
  const std::vector<SeenTx> txs = {seen(0, 10.0, 4), seen(100, 2.0, 5)};
  const auto stats = count_pair_violations(txs, 0, false);
  EXPECT_EQ(stats.predicted_pairs, 1u);
  EXPECT_EQ(stats.violations, 0u);
}

TEST(PairViolations, SameBlockIsNotViolation) {
  const std::vector<SeenTx> txs = {seen(0, 10.0, 4), seen(100, 2.0, 4)};
  const auto stats = count_pair_violations(txs, 0, false);
  EXPECT_EQ(stats.violations, 0u);
}

TEST(PairViolations, LowerFeeFirstMakesNoPrediction) {
  // Earlier tx has LOWER fee: the norm predicts nothing about the pair.
  const std::vector<SeenTx> txs = {seen(0, 1.0, 9), seen(100, 5.0, 3)};
  const auto stats = count_pair_violations(txs, 0, false);
  EXPECT_EQ(stats.predicted_pairs, 0u);
  EXPECT_DOUBLE_EQ(stats.fraction(), 0.0);
}

TEST(PairViolations, EpsilonTightensArrivalConstraint) {
  // 5 seconds apart: counted at eps=0, excluded at eps=10s (could be a
  // propagation artefact, per the paper).
  const std::vector<SeenTx> txs = {seen(0, 10.0, 5), seen(5, 2.0, 4)};
  EXPECT_EQ(count_pair_violations(txs, 0, false).violations, 1u);
  EXPECT_EQ(count_pair_violations(txs, 10, false).violations, 0u);
  EXPECT_EQ(count_pair_violations(txs, 10, false).predicted_pairs, 0u);
}

TEST(PairViolations, CpfpExclusionDropsFlaggedTxs) {
  const std::vector<SeenTx> txs = {
      seen(0, 10.0, 5, /*cpfp=*/false, /*cpfp_parent=*/true),  // dropped
      seen(100, 2.0, 4),
      seen(200, 1.0, 6, /*cpfp=*/true),  // dropped
  };
  const auto with = count_pair_violations(txs, 0, false);
  const auto without = count_pair_violations(txs, 0, true);
  EXPECT_EQ(with.predicted_pairs, 3u);  // (0,1), (0,2) and (1,2)
  EXPECT_EQ(without.predicted_pairs, 0u);
}

TEST(PairViolations, UnsortedInputHandled) {
  // Same as DetectsViolation but given in reverse order.
  const std::vector<SeenTx> txs = {seen(100, 2.0, 4), seen(0, 10.0, 5)};
  const auto stats = count_pair_violations(txs, 0, false);
  EXPECT_EQ(stats.violations, 1u);
}

TEST(ViolationsByBlock, AttributesToTheEarlyCommittingBlock) {
  // i (better) committed in block 6; j (worse) jumped ahead in block 4.
  // Block 4's miner caused the violation.
  const std::vector<SeenTx> txs = {seen(0, 10.0, 6), seen(100, 2.0, 4),
                                   seen(200, 1.5, 5)};
  const auto by_block = violations_by_block(txs, 0, false);
  // Pairs: (0,1): violation -> block 4. (0,2): violation -> block 5.
  // (1,2): 2.0 > 1.5, b 4 < 5: compliant.
  ASSERT_EQ(by_block.size(), 2u);
  EXPECT_EQ(by_block.at(4), 1u);
  EXPECT_EQ(by_block.at(5), 1u);
}

TEST(ViolationsByBlock, TotalsMatchPairCount) {
  std::vector<SeenTx> txs;
  unsigned state = 99;
  for (int i = 0; i < 300; ++i) {
    state = state * 1664525u + 1013904223u;
    txs.push_back(seen(i * 20, 1.0 + state % 50, 1 + state % 12));
  }
  const auto stats = count_pair_violations(txs, 0, false);
  const auto by_block = violations_by_block(txs, 0, false);
  std::uint64_t total = 0;
  for (const auto& [height, n] : by_block) total += n;
  EXPECT_EQ(total, stats.violations);
}

TEST(PairViolations, EmptyAndSingleton) {
  EXPECT_EQ(count_pair_violations({}, 0, false).predicted_pairs, 0u);
  EXPECT_EQ(count_pair_violations({seen(0, 1.0, 1)}, 0, false).predicted_pairs, 0u);
}

TEST(PairViolationCounter, RefusesABatchThatIsNotStrictlyLater) {
  PairViolationCounter counter(0, /*exclude_cpfp=*/true);
  const std::vector<SeenTx> first = {seen(100, 2.0, 4), seen(0, 10.0, 5)};
  ASSERT_TRUE(counter.add(first));
  EXPECT_EQ(counter.stats().violations, 1u);

  // Height 5 is already counted: refused, and nothing changes.
  const std::vector<SeenTx> replay = {seen(50, 9.0, 6), seen(60, 1.0, 5)};
  EXPECT_FALSE(counter.add(replay));
  EXPECT_EQ(counter.stats().predicted_pairs, 1u);
  EXPECT_EQ(counter.stats().violations, 1u);

  // A CPFP entry the filter drops does not count against the order.
  const std::vector<SeenTx> later = {seen(50, 9.0, 6), seen(60, 1.0, 2, true)};
  ASSERT_TRUE(counter.add(later));
  // New pairs: (t=0, fee 10, block 5) before (t=50, fee 9, block 6) is
  // compliant; (t=50, fee 9, block 6) before (t=100, fee 2, block 4) is a
  // violation.
  EXPECT_EQ(counter.stats().predicted_pairs, 3u);
  EXPECT_EQ(counter.stats().violations, 2u);

  counter.clear();
  EXPECT_EQ(counter.stats().predicted_pairs, 0u);
  EXPECT_TRUE(counter.add(replay));
}

// --- Fenwick vs brute-force cross-validation -------------------------------

namespace property {

/// Deterministic workload generator covering the nasty cases: duplicate
/// arrival times (epsilon boundary), duplicate fee-rates (strict-fee
/// tie-breaking), narrow block ranges, and CPFP flags.
std::vector<SeenTx> random_workload(unsigned seed, std::size_t n,
                                    SimTime time_range, int fee_levels,
                                    std::uint64_t block_levels,
                                    bool with_cpfp) {
  std::vector<SeenTx> txs;
  txs.reserve(n);
  unsigned state = seed;
  const auto next = [&state] {
    state = state * 1664525u + 1013904223u;
    return state;
  };
  for (std::size_t i = 0; i < n; ++i) {
    SeenTx t;
    t.first_seen = static_cast<SimTime>(next() % (time_range + 1));
    t.fee_rate = 1.0 + static_cast<double>(next() % fee_levels);
    t.block_height = 1 + next() % block_levels;
    if (with_cpfp) {
      t.cpfp = next() % 8 == 0;
      t.cpfp_parent = next() % 8 == 1;
    }
    txs.push_back(t);
  }
  return txs;
}

/// Feeds @p txs to a PairViolationCounter in ascending-height batches of
/// uneven size (1, 2, 3, ... distinct heights per batch) and returns the
/// final count.
PairViolationStats count_in_height_batches(std::vector<SeenTx> txs,
                                           SimTime epsilon, bool exclude_cpfp) {
  std::stable_sort(txs.begin(), txs.end(), [](const SeenTx& a, const SeenTx& b) {
    return a.block_height < b.block_height;
  });
  PairViolationCounter counter(epsilon, exclude_cpfp);
  std::size_t begin = 0;
  for (std::size_t heights_per_batch = 1; begin < txs.size(); ++heights_per_batch) {
    std::size_t end = begin;
    for (std::size_t h = 0; h < heights_per_batch && end < txs.size(); ++h) {
      const std::uint64_t height = txs[end].block_height;
      while (end < txs.size() && txs[end].block_height == height) ++end;
    }
    EXPECT_TRUE(counter.add(std::span<const SeenTx>(txs).subspan(begin, end - begin)));
    begin = end;
  }
  return counter.stats();
}

void expect_algorithms_agree(const std::vector<SeenTx>& txs, SimTime epsilon,
                             bool exclude_cpfp, const char* label) {
  const auto fast = count_pair_violations(txs, epsilon, exclude_cpfp,
                                          PairAlgorithm::kFenwick);
  const auto slow = count_pair_violations(txs, epsilon, exclude_cpfp,
                                          PairAlgorithm::kBruteForce);
  EXPECT_EQ(fast.predicted_pairs, slow.predicted_pairs) << label;
  EXPECT_EQ(fast.violations, slow.violations) << label;

  const auto running = count_in_height_batches(txs, epsilon, exclude_cpfp);
  EXPECT_EQ(running.predicted_pairs, slow.predicted_pairs) << label;
  EXPECT_EQ(running.violations, slow.violations) << label;

  const auto fast_by_block =
      violations_by_block(txs, epsilon, exclude_cpfp, PairAlgorithm::kFenwick);
  const auto slow_by_block = violations_by_block(txs, epsilon, exclude_cpfp,
                                                 PairAlgorithm::kBruteForce);
  EXPECT_EQ(fast_by_block, slow_by_block) << label;
}

}  // namespace property

TEST(PairViolationsProperty, FenwickMatchesBruteForceOnRandomWorkloads) {
  for (unsigned seed : {1u, 7u, 42u, 1337u, 99991u}) {
    const auto txs = property::random_workload(seed, 400, 5'000, 60, 40, false);
    for (SimTime eps : {SimTime{0}, SimTime{1}, SimTime{13}, SimTime{600}}) {
      property::expect_algorithms_agree(txs, eps, false, "random workload");
    }
  }
}

TEST(PairViolationsProperty, AgreesUnderHeavyTies) {
  // Few distinct times/fees/blocks: the epsilon boundary (t_i + eps ==
  // t_j) and the strict fee comparison are hit constantly.
  for (unsigned seed : {3u, 17u, 2024u}) {
    const auto txs = property::random_workload(seed, 300, 20, 4, 3, false);
    for (SimTime eps : {SimTime{0}, SimTime{1}, SimTime{5}, SimTime{20}}) {
      property::expect_algorithms_agree(txs, eps, false, "heavy ties");
    }
  }
}

TEST(PairViolationsProperty, AgreesWithCpfpExclusion) {
  for (unsigned seed : {11u, 23u, 456u}) {
    const auto txs = property::random_workload(seed, 350, 3'000, 30, 25, true);
    property::expect_algorithms_agree(txs, 0, true, "cpfp excluded");
    property::expect_algorithms_agree(txs, 10, true, "cpfp excluded eps=10");
    property::expect_algorithms_agree(txs, 0, false, "cpfp kept");
  }
}

TEST(PairViolationsProperty, AgreesOnEpsilonExactBoundary) {
  // Pairs exactly eps apart must NOT be predicted (strict inequality).
  const std::vector<SeenTx> txs = {seen(0, 10.0, 5), seen(10, 2.0, 4),
                                   seen(20, 1.0, 3), seen(30, 5.0, 2)};
  for (SimTime eps : {SimTime{9}, SimTime{10}, SimTime{11}, SimTime{30}}) {
    property::expect_algorithms_agree(txs, eps, false, "exact boundary");
  }
  const auto at_eps10 =
      count_pair_violations(txs, 10, false, PairAlgorithm::kFenwick);
  // (0,1) is exactly 10 apart -> excluded; (0,2), (0,3), (1,2), (1,3), (2,3)
  // have gaps 20/30/10/20/10 -> only gaps > 10 qualify, with f_i > f_j:
  // (0,2) predicted+violation, (0,3) predicted+violation, (1,3) gap 20 but
  // 2.0 < 5.0 -> no prediction.
  EXPECT_EQ(at_eps10.predicted_pairs, 2u);
  EXPECT_EQ(at_eps10.violations, 2u);
}

TEST(PairViolationsProperty, NegativeEpsilonClampedToZero) {
  const auto txs = property::random_workload(5u, 200, 1'000, 20, 10, false);
  const auto clamped =
      count_pair_violations(txs, -50, false, PairAlgorithm::kFenwick);
  const auto zero = count_pair_violations(txs, 0, false, PairAlgorithm::kBruteForce);
  EXPECT_EQ(clamped.predicted_pairs, zero.predicted_pairs);
  EXPECT_EQ(clamped.violations, zero.violations);
  const auto running = property::count_in_height_batches(txs, -50, false);
  EXPECT_EQ(running.predicted_pairs, zero.predicted_pairs);
  EXPECT_EQ(running.violations, zero.violations);
}

TEST(PairViolationsProperty, ByBlockTotalsMatchAcrossAlgorithms) {
  const auto txs = property::random_workload(31u, 500, 4'000, 40, 20, true);
  for (const bool exclude : {false, true}) {
    const auto stats =
        count_pair_violations(txs, 7, exclude, PairAlgorithm::kFenwick);
    const auto by_block =
        violations_by_block(txs, 7, exclude, PairAlgorithm::kFenwick);
    std::uint64_t total = 0;
    for (const auto& [height, n] : by_block) total += n;
    EXPECT_EQ(total, stats.violations);
  }
}

}  // namespace
}  // namespace cn::core
