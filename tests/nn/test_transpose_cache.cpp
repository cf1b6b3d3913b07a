// Transpose-cached BPTT (DESIGN.md §11): the cached weight transposes must
// change training RESULTS not at all — bit-identical losses, gradients and
// parameters versus the self-transposing path — while eliminating the
// per-lane re-transposition work (measured via nn::transpose_stats).
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/kernels.hpp"
#include "nn/trainer.hpp"

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
  cfg.hidden_dims = {12, 8};  // two layers: the cache covers every layer
  SequenceModel model(cfg);
  Rng rng(seed);
  model.init_params(rng);
  return model;
}

std::vector<WindowRef> window_refs(std::span<const Fragment> frags) {
  std::vector<WindowRef> out;
  for (const Fragment& f : frags) {
    out.push_back(f.window());
  }
  return out;
}

void expect_grads_equal(const ModelGrads& a, const ModelGrads& b) {
  ASSERT_EQ(a.g.size(), b.g.size());
  for (std::size_t k = 0; k < a.g.size(); ++k) {
    ASSERT_EQ(a.g[k].rows(), b.g[k].rows());
    ASSERT_EQ(a.g[k].cols(), b.g[k].cols());
    const float* pa = a.g[k].data();
    const float* pb = b.g[k].data();
    for (std::size_t i = 0; i < a.g[k].rows() * a.g[k].cols(); ++i) {
      ASSERT_EQ(pa[i], pb[i]) << "grad slot " << k << " element " << i;
    }
  }
}

TEST(TransposeCache, CachedTrainWindowBatchIsBitwiseIdentical) {
  const SequenceModel model = make_model(4, 1);
  const std::vector<Fragment> frags = {cyclic(4, 17, 0), cyclic(4, 9, 1),
                                       cyclic(4, 23, 2)};
  const std::vector<WindowRef> windows = window_refs(frags);

  ModelGrads plain = model.make_grads();
  ModelGrads cached = model.make_grads();
  BatchWorkspace ws_plain, ws_cached;
  plain.zero();
  cached.zero();

  TransposeCache tcache;
  model.refresh_transpose_cache(tcache);
  ASSERT_EQ(tcache.version, model.params_version());

  const double loss_plain =
      model.train_window_batch(windows, plain, ws_plain);
  const double loss_cached = model.train_window_batch(
      windows, cached, ws_cached, /*pool=*/nullptr, &tcache);

  EXPECT_EQ(loss_plain, loss_cached);
  expect_grads_equal(plain, cached);
}

TEST(TransposeCache, InvalidCacheFallsBackToSelfTransposing) {
  SequenceModel model = make_model(3, 2);
  const std::vector<Fragment> frags = {cyclic(3, 14, 0)};
  const std::vector<WindowRef> windows = window_refs(frags);

  // Poison the cache contents, then announce a parameter change: the stale
  // cache must be ignored entirely and still match the plain path.
  TransposeCache tcache;
  model.refresh_transpose_cache(tcache);
  for (Matrix& m : tcache.wT) m.fill(123.0f);
  tcache.softmax_wT.fill(-7.0f);
  model.params_changed();

  ModelGrads plain = model.make_grads();
  ModelGrads stale = model.make_grads();
  BatchWorkspace ws_plain, ws_stale;
  plain.zero();
  stale.zero();
  const double loss_plain =
      model.train_window_batch(windows, plain, ws_plain);
  const double loss_stale = model.train_window_batch(
      windows, stale, ws_stale, /*pool=*/nullptr, &tcache);

  EXPECT_EQ(loss_plain, loss_stale);
  expect_grads_equal(plain, stale);
}

TEST(TransposeCache, ProcessReusesTransposesUntilInvalidated) {
  SequenceModel model = make_model(4, 3);
  const std::vector<Fragment> frags = {cyclic(4, 16, 0), cyclic(4, 16, 1),
                                       cyclic(4, 16, 2), cyclic(4, 16, 3)};
  const std::vector<WindowRef> windows = window_refs(frags);
  MinibatchTrainer engine(model, /*micro_batch=*/1, /*threads=*/1);

  // Warm up allocations, then count: with frozen weights, repeated
  // process() calls must not re-transpose anything (2 per layer + softmax
  // happened once, inside the first call's refresh).
  engine.process(windows);
  reset_transpose_stats();
  engine.process(windows);
  engine.process(windows);
  EXPECT_EQ(transpose_stats().calls, 0u);

  // A parameter change forces exactly one fresh refresh (2 per layer +
  // softmax).
  model.params_changed();
  engine.process(windows);
  EXPECT_EQ(transpose_stats().calls,
            2 * model.lstm().num_layers() + 1);
}

TEST(TransposeCache, TrainerStepsMatchUncachedReferenceBitwise) {
  // Reference: the engine's original semantics — every lane transposes for
  // itself (tcache == nullptr), the lanes reduce in the same fixed-order
  // tree in separate passes and the clip scales the gradients in place.
  // Three optimizer steps must leave the parameters bit-identical to the
  // cached engine's fused fold.
  const std::size_t kMicro = 2;
  const std::vector<Fragment> frags = {cyclic(4, 19, 0), cyclic(4, 11, 1),
                                       cyclic(4, 13, 2), cyclic(4, 7, 3),
                                       cyclic(4, 15, 0)};
  const std::vector<WindowRef> windows = window_refs(frags);

  SequenceModel cached_model = make_model(4, 5);
  SequenceModel ref_model = make_model(4, 5);
  Adam opt_cached(3e-3);
  Adam opt_ref(3e-3);
  MinibatchTrainer engine(cached_model, kMicro, /*threads=*/1);
  const auto cached_slots = cached_model.param_slots();
  const auto ref_slots = ref_model.param_slots();

  for (int step = 0; step < 3; ++step) {
    const double cached_loss =
        engine.step(windows, cached_slots, 5.0, opt_cached);

    ref_model.zero_grads();
    const std::size_t lanes = (windows.size() + kMicro - 1) / kMicro;
    std::vector<ModelGrads> lane_grads;
    std::vector<BatchWorkspace> lane_ws(lanes);
    double ref_loss = 0.0;
    for (std::size_t mb = 0; mb < lanes; ++mb) {
      lane_grads.push_back(ref_model.make_grads());
      lane_grads[mb].zero();
      const std::size_t begin = mb * kMicro;
      const std::size_t count = std::min(kMicro, windows.size() - begin);
      ref_loss += ref_model.train_window_batch(
          std::span(windows).subspan(begin, count), lane_grads[mb],
          lane_ws[mb]);
    }
    // The fold as separate passes: the pairwise tree, lane 0 back in the
    // parameters' layout (a transpose of layer 0's input-weight gradient),
    // an add into the zeroed model gradients, then the clip as an in-place
    // scaling pass.
    for (std::size_t stride = 1; stride < lanes; stride *= 2) {
      for (std::size_t i = 0; i + stride < lanes; i += 2 * stride) {
        for (std::size_t k = 0; k < ref_slots.size(); ++k) {
          lane_grads[i].g[k] += lane_grads[i + stride].g[k];
        }
      }
    }
    for (std::size_t k = 0; k < ref_slots.size(); ++k) {
      *ref_slots[k].grad += lane_grads[0].in_param_layout(k);
    }
    double ss = 0.0;
    for (const ParamSlot& s : ref_slots) ss += s.grad->sum_squares();
    ASSERT_EQ(engine.grad_sum_squares(), ss) << "step " << step;
    const double norm = std::sqrt(ss);
    if (norm > 5.0) {
      for (const ParamSlot& s : ref_slots) {
        *s.grad *= static_cast<float>(5.0 / norm);
      }
    }
    opt_ref.step(ref_slots);

    ASSERT_EQ(cached_loss, ref_loss) << "step " << step;
  }
  for (std::size_t k = 0; k < cached_slots.size(); ++k) {
    const Matrix& a = *cached_slots[k].param;
    const Matrix& b = *ref_slots[k].param;
    const float* pa = a.data();
    const float* pb = b.data();
    for (std::size_t i = 0; i < a.rows() * a.cols(); ++i) {
      ASSERT_EQ(pa[i], pb[i]) << "param slot " << k << " element " << i;
    }
  }
}

TEST(TransposeCache, GroupedSingleGroupMatchesUngrouped) {
  const std::vector<Fragment> frags = {cyclic(4, 10, 0), cyclic(4, 12, 1),
                                       cyclic(4, 8, 2)};
  const std::vector<WindowRef> windows = window_refs(frags);

  SequenceModel ma = make_model(4, 7);
  SequenceModel mb = make_model(4, 7);
  MinibatchTrainer ea(ma, 2, 1);
  MinibatchTrainer eb(mb, 2, 1);

  const double la = ea.process(windows);
  const std::span<const WindowRef> group[] = {windows};
  const double lb = eb.process_grouped(group);
  EXPECT_EQ(la, lb);

  const auto sa = ma.param_slots();
  const auto sb = mb.param_slots();
  for (std::size_t k = 0; k < sa.size(); ++k) {
    const float* pa = sa[k].grad->data();
    const float* pb = sb[k].grad->data();
    for (std::size_t i = 0;
         i < sa[k].grad->rows() * sa[k].grad->cols(); ++i) {
      ASSERT_EQ(pa[i], pb[i]);
    }
  }
}

TEST(TransposeCache, GroupedLanesBitIdenticalAcrossThreadCounts) {
  const std::vector<Fragment> a_frags = {cyclic(4, 9, 0), cyclic(4, 14, 1)};
  const std::vector<Fragment> b_frags = {cyclic(4, 11, 2), cyclic(4, 13, 3),
                                         cyclic(4, 6, 0)};
  const std::vector<WindowRef> ga = window_refs(a_frags);
  const std::vector<WindowRef> gb = window_refs(b_frags);
  const std::span<const WindowRef> groups[] = {ga, gb};

  std::vector<double> losses;
  std::vector<std::vector<float>> grads0;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SequenceModel model = make_model(4, 9);
    MinibatchTrainer engine(model, 2, threads);
    losses.push_back(engine.process_grouped(groups));
    const auto slots = model.param_slots();
    std::vector<float> flat;
    for (const ParamSlot& s : slots) {
      flat.insert(flat.end(), s.grad->data(),
                  s.grad->data() + s.grad->rows() * s.grad->cols());
    }
    grads0.push_back(std::move(flat));
  }
  for (std::size_t i = 1; i < losses.size(); ++i) {
    EXPECT_EQ(losses[0], losses[i]);
    ASSERT_EQ(grads0[0].size(), grads0[i].size());
    for (std::size_t j = 0; j < grads0[0].size(); ++j) {
      ASSERT_EQ(grads0[0][j], grads0[i][j]);
    }
  }
}

}  // namespace
}  // namespace mlad::nn
