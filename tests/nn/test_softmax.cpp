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

}  // namespace
}  // namespace mlad::nn
