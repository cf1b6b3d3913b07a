#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace mlad::nn {
namespace {

Fragment cyclic(std::size_t classes, std::size_t steps, std::size_t phase) {
  Fragment f;
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<float> x(classes, 0.0f);
    x[(t + phase) % classes] = 1.0f;
    f.inputs.push_back(std::move(x));
    f.targets.push_back((t + phase + 1) % classes);
  }
  return f;
}

SequenceModel make_model(std::size_t classes, std::uint64_t seed) {
  SequenceModelConfig cfg;
  cfg.input_dim = classes;
  cfg.num_classes = classes;
  cfg.hidden_dims = {12};
  SequenceModel model(cfg);
  Rng rng(seed);
  model.init_params(rng);
  return model;
}

TEST(Trainer, LossDecreasesAcrossEpochs) {
  SequenceModel model = make_model(4, 1);
  std::vector<Fragment> frags = {cyclic(4, 32, 0), cyclic(4, 32, 1)};
  Adam opt(5e-3);
  TrainerConfig cfg;
  cfg.epochs = 30;
  Rng rng(2);
  const TrainReport report = train(model, frags, opt, cfg, rng);
  ASSERT_EQ(report.epoch_losses.size(), 30u);
  EXPECT_LT(report.epoch_losses.back(), report.epoch_losses.front() * 0.5);
  EXPECT_EQ(report.total_steps, 30u * 64u);
  EXPECT_GT(report.seconds, 0.0);
}

TEST(Trainer, TruncationCoversAllSteps) {
  SequenceModel model = make_model(3, 3);
  std::vector<Fragment> frags = {cyclic(3, 50, 0)};
  Adam opt(5e-3);
  TrainerConfig cfg;
  cfg.epochs = 1;
  cfg.truncate_steps = 7;  // 50 = 7*7 + 1 → 8 windows
  Rng rng(4);
  const TrainReport report = train(model, frags, opt, cfg, rng);
  EXPECT_EQ(report.total_steps, 50u);
}

TEST(Trainer, EpochCallbackFires) {
  SequenceModel model = make_model(3, 5);
  std::vector<Fragment> frags = {cyclic(3, 12, 0)};
  Adam opt(1e-3);
  TrainerConfig cfg;
  cfg.epochs = 5;
  std::size_t calls = 0;
  cfg.on_epoch = [&](std::size_t, double) { ++calls; };
  Rng rng(6);
  train(model, frags, opt, cfg, rng);
  EXPECT_EQ(calls, 5u);
}

TEST(Trainer, MeanLossAndTopKError) {
  SequenceModel model = make_model(4, 7);
  std::vector<Fragment> frags = {cyclic(4, 40, 0)};
  Adam opt(1e-2);
  TrainerConfig cfg;
  cfg.epochs = 50;
  Rng rng(8);
  train(model, frags, opt, cfg, rng);
  EXPECT_LT(mean_loss(model, frags), 0.5);
  EXPECT_DOUBLE_EQ(top_k_error(model, frags, 4), 0.0);  // k = |S|
  EXPECT_LT(top_k_error(model, frags, 1), 0.1);
}

TEST(Trainer, ChooseKMinimal) {
  SequenceModel model = make_model(4, 9);
  std::vector<Fragment> frags = {cyclic(4, 40, 0)};
  Adam opt(1e-2);
  TrainerConfig cfg;
  cfg.epochs = 50;
  Rng rng(10);
  train(model, frags, opt, cfg, rng);
  // A well-trained deterministic task should admit k == 1.
  EXPECT_EQ(choose_k(model, frags, 0.05, 4), 1u);
}

TEST(Trainer, TopKErrorMatchesPerKMisses) {
  // top_k_error and choose_k rank every target once; each err_k must equal
  // the brute-force per-k pass through SequenceModel::top_k_misses.
  SequenceModel model = make_model(5, 15);
  std::vector<Fragment> frags = {cyclic(5, 23, 0), cyclic(5, 9, 2)};
  Adam opt(1e-2);
  TrainerConfig cfg;
  cfg.epochs = 3;
  Rng rng(16);
  train(model, frags, opt, cfg, rng);
  frags[1].targets[3] = 5;  // an id the model cannot score: always a miss
  std::size_t brute_k = 0;  // minimal k with err_k < 0.3, 0 if none
  for (std::size_t k = 1; k <= 7; ++k) {
    std::size_t misses = 0;
    for (const Fragment& f : frags) {
      misses += model.top_k_misses(f.inputs, f.targets, k);
    }
    const double err = static_cast<double>(misses) / 32.0;
    EXPECT_EQ(top_k_error(model, frags, k), err) << "k=" << k;
    if (brute_k == 0 && err < 0.3) brute_k = k;
  }
  EXPECT_EQ(choose_k(model, frags, 0.3, 7), brute_k == 0 ? 7 : brute_k);
}

TEST(Trainer, ChooseKFallsBackToMax) {
  SequenceModel model = make_model(4, 11);  // untrained
  std::vector<Fragment> frags = {cyclic(4, 40, 0)};
  // θ = 0 can never be satisfied (error is ≥ 0 and strict < is required).
  EXPECT_EQ(choose_k(model, frags, 0.0, 3), 3u);
}

TEST(Trainer, EmptyFragmentsAreHarmless) {
  SequenceModel model = make_model(3, 13);
  std::vector<Fragment> frags = {Fragment{}};
  Adam opt(1e-3);
  TrainerConfig cfg;
  cfg.epochs = 2;
  Rng rng(14);
  const TrainReport report = train(model, frags, opt, cfg, rng);
  EXPECT_EQ(report.total_steps, 0u);
  EXPECT_DOUBLE_EQ(mean_loss(model, frags), 0.0);
  EXPECT_DOUBLE_EQ(top_k_error(model, frags, 1), 0.0);
}

}  // namespace
}  // namespace mlad::nn
