// Numerical gradient checks — the ground truth for the from-scratch BPTT.
//
// Each check perturbs individual parameters, measures the loss by central
// differences, and compares against the analytic gradient accumulated by
// backward(). Float32 arithmetic bounds the achievable agreement; the
// tolerances below are standard for fp32 gradient checking.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "nn/kernels.hpp"
#include "nn/lstm_cell.hpp"
#include "nn/sequence_model.hpp"
#include "nn/softmax.hpp"

namespace mlad::nn {
namespace {

/// Relative-error comparison with an absolute floor: gradients below the
/// fp32 central-difference noise floor (~1e-4 at these loss magnitudes)
/// are compared absolutely.
void expect_close(double analytic, double numeric, const char* what) {
  if (std::abs(analytic - numeric) < 1e-4) return;
  const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-4});
  EXPECT_LT(std::abs(analytic - numeric) / denom, 2e-2)
      << what << ": analytic=" << analytic << " numeric=" << numeric;
}

/// The layers' single-stream forward over freshly transposed weights (the
/// checks below perturb the weights between calls).
void softmax_forward(const SoftmaxLayer& layer, const std::vector<float>& h,
                     std::vector<float>& probs) {
  Matrix wT;
  transpose(layer.w(), wT);
  layer.forward(h, wT, probs);
}

void cell_forward(const LstmCell& cell, const std::vector<float>& x,
                  const std::vector<float>& h0, const std::vector<float>& c0,
                  LstmStepCache& cache) {
  Matrix wT, uT;
  transpose(cell.w(), wT);
  transpose(cell.u(), uT);
  cell.forward(x, h0, c0, wT, uT, cache);
}

/// Loss for the softmax layer test: CE of a fixed target given input h.
double softmax_loss(const SoftmaxLayer& layer, const std::vector<float>& h,
                    std::size_t target) {
  std::vector<float> probs;
  softmax_forward(layer, h, probs);
  return -std::log(std::max(1e-12, static_cast<double>(probs[target])));
}

TEST(GradCheck, SoftmaxLayerParamsAndInput) {
  Rng rng(5);
  SoftmaxLayer layer(4, 3);
  layer.init_params(rng);
  const std::vector<float> h = {0.3f, -0.7f, 1.2f, 0.1f};
  const std::size_t target = 2;

  std::vector<float> probs;
  softmax_forward(layer, h, probs);
  std::vector<float> dh(4, 0.0f);
  layer.zero_grads();
  layer.backward(h, probs, target, dh);

  const float eps = 1e-2f;
  // Check every weight.
  for (std::size_t r = 0; r < layer.w().rows(); ++r) {
    for (std::size_t c = 0; c < layer.w().cols(); ++c) {
      const float orig = layer.w()(r, c);
      layer.w()(r, c) = orig + eps;
      const double lp = softmax_loss(layer, h, target);
      layer.w()(r, c) = orig - eps;
      const double lm = softmax_loss(layer, h, target);
      layer.w()(r, c) = orig;
      expect_close(layer.grad_w()(r, c), (lp - lm) / (2 * eps), "softmax W");
    }
  }
  // Check input gradient.
  for (std::size_t i = 0; i < h.size(); ++i) {
    std::vector<float> hp = h;
    hp[i] += eps;
    const double lp = softmax_loss(layer, hp, target);
    hp[i] = h[i] - eps;
    const double lm = softmax_loss(layer, hp, target);
    expect_close(dh[i], (lp - lm) / (2 * eps), "softmax dh");
  }
}

/// Scalar loss over one LSTM step: dot(h_t, probe). Linear in h so the
/// upstream gradient is simply `probe`.
double cell_loss(const LstmCell& cell, const std::vector<float>& x,
                 const std::vector<float>& h0, const std::vector<float>& c0,
                 const std::vector<float>& probe) {
  LstmStepCache cache;
  cell_forward(cell, x, h0, c0, cache);
  double loss = 0.0;
  for (std::size_t i = 0; i < probe.size(); ++i) loss += cache.h[i] * probe[i];
  return loss;
}

TEST(GradCheck, LstmCellAllParameters) {
  Rng rng(11);
  LstmCell cell(3, 4);
  cell.init_params(rng);

  std::vector<float> x = {0.5f, -0.2f, 0.9f};
  std::vector<float> h0 = {0.1f, 0.2f, -0.3f, 0.4f};
  std::vector<float> c0 = {-0.5f, 0.3f, 0.2f, 0.0f};
  std::vector<float> probe = {1.0f, -0.5f, 0.25f, 0.75f};

  LstmStepCache cache;
  cell_forward(cell, x, h0, c0, cache);
  std::vector<float> dc_in(4, 0.0f);
  std::vector<float> dx(3);
  std::vector<float> dh_prev(4);
  std::vector<float> dc_prev(4);
  cell.zero_grads();
  cell.backward(cache, probe, dc_in, dx, dh_prev, dc_prev);

  const float eps = 1e-2f;
  auto check_matrix = [&](Matrix& m, const Matrix& grad, const char* what) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      const float orig = m.data()[i];
      m.data()[i] = orig + eps;
      const double lp = cell_loss(cell, x, h0, c0, probe);
      m.data()[i] = orig - eps;
      const double lm = cell_loss(cell, x, h0, c0, probe);
      m.data()[i] = orig;
      expect_close(grad.data()[i], (lp - lm) / (2 * eps), what);
    }
  };
  check_matrix(cell.w(), cell.grad_w(), "lstm W");
  check_matrix(cell.u(), cell.grad_u(), "lstm U");
  check_matrix(cell.b(), cell.grad_b(), "lstm b");

  // Input and previous-state gradients.
  for (std::size_t i = 0; i < x.size(); ++i) {
    auto xp = x;
    xp[i] += eps;
    const double lp = cell_loss(cell, xp, h0, c0, probe);
    xp[i] = x[i] - eps;
    const double lm = cell_loss(cell, xp, h0, c0, probe);
    expect_close(dx[i], (lp - lm) / (2 * eps), "lstm dx");
  }
  for (std::size_t i = 0; i < h0.size(); ++i) {
    auto hp = h0;
    hp[i] += eps;
    const double lp = cell_loss(cell, x, hp, c0, probe);
    hp[i] = h0[i] - eps;
    const double lm = cell_loss(cell, x, hp, c0, probe);
    expect_close(dh_prev[i], (lp - lm) / (2 * eps), "lstm dh_prev");
  }
  for (std::size_t i = 0; i < c0.size(); ++i) {
    auto cp = c0;
    cp[i] += eps;
    const double lp = cell_loss(cell, x, h0, cp, probe);
    cp[i] = c0[i] - eps;
    const double lm = cell_loss(cell, x, h0, cp, probe);
    expect_close(dc_prev[i], (lp - lm) / (2 * eps), "lstm dc_prev");
  }
}

/// End-to-end BPTT check on the full stacked model over a short sequence.
double model_loss(const SequenceModel& model,
                  const std::vector<std::vector<float>>& xs,
                  const std::vector<std::size_t>& targets) {
  return model.evaluate_fragment(xs, targets);
}

TEST(GradCheck, FullModelBptt) {
  Rng rng(17);
  SequenceModelConfig cfg;
  cfg.input_dim = 5;
  cfg.num_classes = 4;
  cfg.hidden_dims = {6, 5};
  SequenceModel model(cfg);
  model.init_params(rng);

  std::vector<std::vector<float>> xs;
  std::vector<std::size_t> targets;
  for (int t = 0; t < 5; ++t) {
    std::vector<float> x(5);
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
    xs.push_back(x);
    targets.push_back(rng.index(4));
  }

  model.zero_grads();
  model.train_fragment(xs, targets);

  // Spot-check a sample of parameters in every tensor.
  const float eps = 2e-2f;
  Rng pick(23);
  for (ParamSlot slot : model.param_slots()) {
    for (int trial = 0; trial < 6; ++trial) {
      const std::size_t i = pick.index(slot.param->size());
      const float orig = slot.param->data()[i];
      slot.param->data()[i] = orig + eps;
      const double lp = model_loss(model, xs, targets);
      slot.param->data()[i] = orig - eps;
      const double lm = model_loss(model, xs, targets);
      slot.param->data()[i] = orig;
      expect_close(slot.grad->data()[i], (lp - lm) / (2 * eps), "model param");
    }
  }
}

}  // namespace
}  // namespace mlad::nn
