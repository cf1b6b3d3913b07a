#include "nn/softmax.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/kernels.hpp"

namespace mlad::nn {
namespace {

TEST(SoftmaxLayer, ForwardProducesDistribution) {
  Rng rng(3);
  SoftmaxLayer layer(4, 6);
  layer.init_params(rng);
  const std::vector<float> h = {0.2f, -0.4f, 0.8f, 0.0f};
  Matrix wT;
  transpose(layer.w(), wT);
  std::vector<float> probs;
  layer.forward(h, wT, probs);
  ASSERT_EQ(probs.size(), 6u);
  float sum = 0.0f;
  for (float p : probs) {
    EXPECT_GT(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(SoftmaxLayer, BackwardReturnsCrossEntropy) {
  Rng rng(5);
  SoftmaxLayer layer(3, 4);
  layer.init_params(rng);
  const std::vector<float> h = {0.1f, 0.2f, 0.3f};
  Matrix wT;
  transpose(layer.w(), wT);
  std::vector<float> probs;
  layer.forward(h, wT, probs);
  std::vector<float> dh(3);
  const double loss = layer.backward(h, probs, 2, dh);
  EXPECT_NEAR(loss, -std::log(probs[2]), 1e-6);
}

TEST(SoftmaxLayer, DimValidation) {
  SoftmaxLayer layer(3, 4);
  Matrix wT;
  transpose(layer.w(), wT);
  std::vector<float> probs;
  EXPECT_THROW(layer.forward(std::vector<float>{1.0f}, wT, probs),
               std::invalid_argument);
  EXPECT_THROW(SoftmaxLayer(0, 4), std::invalid_argument);
}

TEST(TopK, IndicesDescending) {
  const std::vector<float> probs = {0.1f, 0.5f, 0.2f, 0.15f, 0.05f};
  const auto top = top_k_indices(probs, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
}

TEST(TopK, KLargerThanSizeClamped) {
  const std::vector<float> probs = {0.6f, 0.4f};
  EXPECT_EQ(top_k_indices(probs, 10).size(), 2u);
}

TEST(TopK, DeterministicTieBreakByIndex) {
  const std::vector<float> probs = {0.25f, 0.25f, 0.25f, 0.25f};
  const auto top = top_k_indices(probs, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(TopK, InTopKBasic) {
  const std::vector<float> probs = {0.1f, 0.5f, 0.2f, 0.15f, 0.05f};
  EXPECT_TRUE(in_top_k(probs, 1, 1));
  EXPECT_FALSE(in_top_k(probs, 0, 1));
  EXPECT_TRUE(in_top_k(probs, 0, 4));
  EXPECT_FALSE(in_top_k(probs, 4, 4));
}

TEST(TopK, InTopKConsistentWithIndices) {
  Rng rng(7);
  std::vector<float> probs(20);
  for (auto& p : probs) p = static_cast<float>(rng.uniform());
  for (std::size_t k = 1; k <= probs.size(); ++k) {
    const auto top = top_k_indices(probs, k);
    for (std::size_t t = 0; t < probs.size(); ++t) {
      const bool expect =
          std::find(top.begin(), top.end(), t) != top.end();
      EXPECT_EQ(in_top_k(probs, t, k), expect) << "k=" << k << " t=" << t;
    }
  }
}

TEST(TopK, LogitTieRuleRanksEqualLogitsByIndex) {
  // The serve verdict ranks logits: an entry outranks the target when it is
  // greater, or equal with a lower index.
  const std::vector<float> logits = {2.0f, 3.0f, 3.0f, -1.0f};
  EXPECT_TRUE(in_top_k(logits, 1, 1));
  EXPECT_FALSE(in_top_k(logits, 2, 1));  // tied with index 1, which wins
  EXPECT_TRUE(in_top_k(logits, 2, 2));
  EXPECT_FALSE(in_top_k(logits, 0, 2));
  EXPECT_TRUE(in_top_k(logits, 0, 3));
}

TEST(TopK, LogitsDecideWhereSoftmaxRoundingTies) {
  // Two distinct logits 1e-8 apart exponentiate to the same float, so on
  // probabilities the tie goes to the lower index; on logits the larger
  // logit wins. Logits order classes at least as exactly as probabilities.
  const std::vector<float> logits = {0.0f, 1e-8f, -5.0f};
  std::vector<float> probs = logits;
  softmax_inplace(probs);
  ASSERT_NE(logits[0], logits[1]);
  ASSERT_EQ(probs[0], probs[1]);
  EXPECT_FALSE(in_top_k(probs, 1, 1));
  EXPECT_TRUE(in_top_k(probs, 0, 1));
  EXPECT_TRUE(in_top_k(logits, 1, 1));
  EXPECT_FALSE(in_top_k(logits, 0, 1));
}

TEST(TopK, EdgeCases) {
  const std::vector<float> probs = {0.7f, 0.3f};
  EXPECT_FALSE(in_top_k(probs, 0, 0));   // k == 0
  EXPECT_FALSE(in_top_k(probs, 5, 1));   // target out of range
  EXPECT_TRUE(in_top_k(probs, 1, 2));    // k == size
}

TEST(TopK, OnePassCurveEqualsPerKInTopK) {
  // The one-pass curve must reproduce the brute-force per-k miss counts of
  // in_top_k exactly: with ties (scores drawn from a few values), targets
  // missing from the scores (id == size), and k up to and beyond |S|.
  Rng rng(19);
  const std::size_t classes = 9;
  std::vector<std::vector<float>> rows;
  std::vector<std::size_t> targets;
  for (int n = 0; n < 400; ++n) {
    std::vector<float> scores(classes);
    for (float& v : scores) v = static_cast<float>(rng.index(4)) - 1.5f;
    rows.push_back(std::move(scores));
    targets.push_back(rng.index(classes + 1));  // == classes: missing id
  }
  for (const std::size_t max_k : {0u, 1u, 3u, 9u, 12u}) {
    TopKErrorCurve curve(max_k);
    for (std::size_t n = 0; n < rows.size(); ++n) curve.add(rows[n], targets[n]);
    ASSERT_EQ(curve.total(), rows.size());
    const std::vector<double> errors = curve.errors();
    ASSERT_EQ(errors.size(), max_k);
    std::size_t brute_choice = 0;  // 0: no k qualified yet
    for (std::size_t k = 0; k <= max_k; ++k) {
      std::size_t misses = 0;
      for (std::size_t n = 0; n < rows.size(); ++n) {
        if (!in_top_k(rows[n], targets[n], k)) ++misses;
      }
      const double want =
          static_cast<double>(misses) / static_cast<double>(rows.size());
      EXPECT_EQ(curve.error(k), want) << "max_k=" << max_k << " k=" << k;
      if (k > 0) {
        EXPECT_EQ(errors[k - 1], want);
      }
      if (k > 0 && brute_choice == 0 && want < 0.5) brute_choice = k;
    }
    EXPECT_EQ(curve.choose_k(0.5), brute_choice == 0 ? max_k : brute_choice)
        << "max_k=" << max_k;
  }
  EXPECT_EQ(TopKErrorCurve(4).error(2), 0.0);  // nothing added
  EXPECT_THROW(TopKErrorCurve(2).error(3), std::out_of_range);
}

/// The early-exit loop top_k_rank ran before it became a full count, with
/// the NaN-target rule since added: a NaN target ranks `cap`, a miss.
std::size_t early_exit_rank(std::span<const float> scores, std::size_t target,
                            std::size_t cap) {
  const float st = scores[target];
  if (std::isnan(st)) return cap;
  std::size_t better = 0;
  for (std::size_t i = 0; i < scores.size() && better < cap; ++i) {
    if (scores[i] > st || (scores[i] == st && i < target)) ++better;
  }
  return better;
}

bool early_exit_in_top_k(std::span<const float> scores, std::size_t target,
                         std::size_t k) {
  if (target >= scores.size() || k == 0) return false;
  if (k >= scores.size()) return !std::isnan(scores[target]);
  return early_exit_rank(scores, target, k) < k;
}

TEST(TopK, BranchFreeRankEqualsEarlyExitLoop) {
  // Scores from a small pool so ties fall before and after the target, with
  // NaN (either sign), ±0 and ±inf mixed in; lengths cross the vector
  // widths; every cap from 0 to past the length.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float pool[] = {-1.5f, -0.5f, 0.0f, -0.0f, 0.5f, 1.5f, 1.5f,
                        nan,   -nan,  inf,  -inf,  2.0f, 0.5f};
  Rng rng(77);
  for (int n = 0; n < 3000; ++n) {
    const std::size_t size = 1 + rng.index(40);
    std::vector<float> scores(size);
    for (float& v : scores) {
      v = rng.bernoulli(0.7) ? pool[rng.index(std::size(pool))]
                             : static_cast<float>(rng.normal());
    }
    const std::size_t target = rng.index(size);
    if (n % 5 == 0) scores[target] = nan;  // a NaN target always misses
    for (std::size_t cap = 0; cap <= size + 2; ++cap) {
      ASSERT_EQ(top_k_rank(scores, target, cap),
                early_exit_rank(scores, target, cap))
          << "n=" << n << " target=" << target << " cap=" << cap;
      ASSERT_EQ(in_top_k(scores, target, cap),
                early_exit_in_top_k(scores, target, cap))
          << "n=" << n << " target=" << target << " k=" << cap;
    }
  }
}

TEST(TopK, RankIsInTopKCount) {
  const std::vector<float> scores = {0.5f, 2.0f, 0.5f, 1.0f, 0.5f};
  // Greater: 2.0, 1.0; equal with a lower index: scores[0].
  EXPECT_EQ(top_k_rank(scores, 2, 10), 3u);
  EXPECT_EQ(top_k_rank(scores, 2, 2), 2u);  // capped
  EXPECT_EQ(top_k_rank(scores, 1, 10), 0u);
  // +0 == -0 ties count only before the target; NaNs never count, and a
  // NaN target ranks the cap (NanTargetIsAMissAtEveryK).
  const std::vector<float> zeros = {0.0f, -0.0f, 0.0f, -0.0f, 0.0f};
  EXPECT_EQ(top_k_rank(zeros, 3, 10), 3u);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const std::vector<float> with_nan = {nan, 1.0f, nan, 0.5f};
  EXPECT_EQ(top_k_rank(with_nan, 3, 10), 1u);
  EXPECT_EQ(top_k_rank(with_nan, 0, 10), 10u);
}

TEST(TopK, NanTargetIsAMissAtEveryK) {
  // Weights gone non-finite give NaN logits. Every comparison with a NaN
  // is false, so a NaN target used to rank 0 and sit inside every top k:
  // the LSTM level went silent. It must rank the cap and miss instead,
  // whatever the other scores are — and so must -NaN.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  for (const float target_score : {nan, -nan}) {
    for (const std::vector<float>& others :
         {std::vector<float>{nan, nan, nan},
          std::vector<float>{1.0f, 2.0f, 3.0f},
          std::vector<float>{-1.0f, nan, 0.0f}}) {
      std::vector<float> scores = others;
      scores.insert(scores.begin() + 1, target_score);
      for (std::size_t k = 1; k <= scores.size() + 1; ++k) {
        EXPECT_EQ(top_k_rank(scores, 1, k), k);
        EXPECT_FALSE(in_top_k(scores, 1, k)) << "k=" << k;
      }
      TopKErrorCurve curve(3);
      curve.add(scores, 1);
      for (std::size_t k = 1; k <= 3; ++k) EXPECT_EQ(curve.error(k), 1.0);
    }
  }
  // A finite target among NaNs keeps its rank: NaNs never count as better.
  const std::vector<float> finite_target = {nan, 0.5f, nan};
  EXPECT_EQ(top_k_rank(finite_target, 1, 3), 0u);
  EXPECT_TRUE(in_top_k(finite_target, 1, 1));
}

}  // namespace
}  // namespace mlad::nn
