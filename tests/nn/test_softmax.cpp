#include "nn/softmax.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"
#include "nn/activations.hpp"

namespace mlad::nn {
namespace {

TEST(SoftmaxLayer, ForwardProducesDistribution) {
  Rng rng(3);
  SoftmaxLayer layer(4, 6);
  layer.init_params(rng);
  const std::vector<float> h = {0.2f, -0.4f, 0.8f, 0.0f};
  std::vector<float> probs;
  layer.forward(h, probs);
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
  std::vector<float> probs;
  layer.forward(h, probs);
  std::vector<float> dh(3);
  const double loss = layer.backward(h, probs, 2, dh);
  EXPECT_NEAR(loss, -std::log(probs[2]), 1e-6);
}

TEST(SoftmaxLayer, DimValidation) {
  SoftmaxLayer layer(3, 4);
  std::vector<float> probs;
  EXPECT_THROW(layer.forward(std::vector<float>{1.0f}, probs),
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

TEST(TopK, RankIsInTopKCount) {
  const std::vector<float> scores = {0.5f, 2.0f, 0.5f, 1.0f, 0.5f};
  // Greater: 2.0, 1.0; equal with a lower index: scores[0].
  EXPECT_EQ(top_k_rank(scores, 2, 10), 3u);
  EXPECT_EQ(top_k_rank(scores, 2, 2), 2u);  // capped
  EXPECT_EQ(top_k_rank(scores, 1, 10), 0u);
}

}  // namespace
}  // namespace mlad::nn
