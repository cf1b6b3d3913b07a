#include "nn/trainer.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"

namespace mlad::nn {
namespace {

Fragment cyclic(std::size_t classes, std::size_t steps, std::size_t phase) {
  Fragment f;
  f.inputs.clear(classes);
  for (std::size_t t = 0; t < steps; ++t) {
    f.inputs.ids.push_back(static_cast<std::uint32_t>((t + phase) % classes));
    f.inputs.end_row();
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

TEST(MinibatchTrainer, ZeroMicroBatchIsRejected) {
  SequenceModel model = make_model(3, 1);
  EXPECT_THROW(MinibatchTrainer(model, /*micro_batch=*/0, /*threads=*/1),
               std::invalid_argument);
}

TEST(MinibatchTrainer, NonFiniteGradientStopsTheStep) {
  // A NaN gradient fails `norm > max_norm`, so Adam used to write it into
  // the weights. The fold now throws before the optimizer runs.
  const std::vector<Fragment> frags = {cyclic(4, 10, 0), cyclic(4, 7, 1),
                                       cyclic(4, 12, 2)};
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) windows.push_back(f.window());
  SequenceModel model = make_model(4, 3);
  model.output_layer().w()(1, 2) = std::numeric_limits<float>::quiet_NaN();
  const SequenceModel before = model;
  MinibatchTrainer engine(model, 2, 1);
  Adam opt(1e-2);
  const auto slots = model.param_slots();
  EXPECT_THROW(engine.step(windows, slots, 5.0, opt), NonFiniteGradientError);
  EXPECT_EQ(opt.state().t, 0u);
  const auto& b = before.lstm().layer(0).cell().w();
  const auto& a = model.lstm().layer(0).cell().w();
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)));
}

TEST(MinibatchTrainer, StepEqualsOneGroupStepGrouped) {
  // The detector's epoch loop runs every batched round through
  // step_grouped; a one-capture round must train exactly like step().
  const std::vector<Fragment> frags = {cyclic(4, 10, 0), cyclic(4, 7, 1),
                                       cyclic(4, 12, 2)};
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) {
    windows.push_back(f.window());
  }
  SequenceModel ma = make_model(4, 3);
  SequenceModel mb = make_model(4, 3);
  MinibatchTrainer ea(ma, 2, 1);
  MinibatchTrainer eb(mb, 2, 1);
  Adam oa(1e-2);
  Adam ob(1e-2);
  const auto sa = ma.param_slots();
  const auto sb = mb.param_slots();
  const std::span<const WindowRef> group[] = {windows};
  for (int round = 0; round < 3; ++round) {
    ASSERT_EQ(ea.step(windows, sa, 5.0, oa),
              eb.step_grouped(group, sb, 5.0, ob));
  }
  for (std::size_t k = 0; k < sa.size(); ++k) {
    for (std::size_t i = 0; i < sa[k].param->size(); ++i) {
      ASSERT_EQ(sa[k].param->data()[i], sb[k].param->data()[i])
          << "slot " << k << " element " << i;
    }
  }
}

}  // namespace
}  // namespace mlad::nn
