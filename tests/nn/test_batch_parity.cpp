// Parity between the batched engine (kernels.hpp + *_batch entry points)
// and the sample-at-a-time reference path: forward outputs and accumulated
// gradients must agree within 1e-5 on randomized shapes (DESIGN.md §5). The
// detector-level training determinism tests live in
// tests/detect/test_timeseries_detector.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/kernels.hpp"
#include "nn/lstm_cell.hpp"
#include "nn/sequence_model.hpp"
#include "nn/trainer.hpp"

namespace mlad::nn {
namespace {

Matrix random_matrix(Rng& rng, std::size_t r, std::size_t c) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, double tol,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << what << " flat index " << i;
  }
}

// ---- kernel-level checks --------------------------------------------------

TEST(BatchKernels, MatmulNnMatchesReference) {
  Rng rng(11);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 7, 5}, {4, 16, 9}, {13, 3, 21}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = random_matrix(rng, m, k);
    const Matrix b = random_matrix(rng, k, n);
    Matrix want;
    matmul(a, b, want);  // reference from matrix.hpp
    Matrix got;
    matmul_nn(a, b, got);
    expect_matrix_near(want, got, 1e-6, "matmul_nn");

    ThreadPool pool(4);
    Matrix parallel_got;
    matmul_nn(a, b, parallel_got, &pool);
    // Parallel partitioning must be BIT-identical, not just close.
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], parallel_got.data()[i]);
    }
  }
}

TEST(BatchKernels, MatmulTnAccMatchesReference) {
  Rng rng(12);
  const Matrix a = random_matrix(rng, 9, 6);   // K×M
  const Matrix b = random_matrix(rng, 9, 11);  // K×N
  Matrix want;
  matmul_transposed_a(a, b, want);
  Matrix got(6, 11, 0.0f);
  matmul_tn_acc(a, b, got);
  expect_matrix_near(want, got, 1e-6, "matmul_tn_acc");

  ThreadPool pool(3);
  Matrix parallel_got(6, 11, 0.0f);
  matmul_tn_acc(a, b, parallel_got, &pool);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], parallel_got.data()[i]);
  }
}

TEST(BatchKernels, RowHelpers) {
  Rng rng(13);
  const Matrix src = random_matrix(rng, 5, 4);
  Matrix top;
  copy_top_rows(src, 3, top);
  ASSERT_EQ(top.rows(), 3u);
  EXPECT_EQ(top(2, 3), src(2, 3));

  Matrix dst = random_matrix(rng, 5, 4);
  const Matrix before = dst;
  add_top_rows(dst, top);
  EXPECT_FLOAT_EQ(dst(0, 0), before(0, 0) + top(0, 0));
  EXPECT_FLOAT_EQ(dst(4, 0), before(4, 0));  // untouched below src.rows()

  Matrix bias(1, 4);
  for (std::size_t j = 0; j < 4; ++j) bias(0, j) = float(j);
  Matrix bc;
  broadcast_rows(bias, 3, bc);
  EXPECT_FLOAT_EQ(bc(2, 3), 3.0f);

  Matrix sums(1, 4, 0.0f);
  col_sum_acc(src, sums);
  float want = 0.0f;
  for (std::size_t r = 0; r < 5; ++r) want += src(r, 1);
  EXPECT_NEAR(sums(0, 1), want, 1e-6);
}

// ---- cell-level parity ------------------------------------------------------

TEST(BatchParity, CellForwardMatchesPerSample) {
  Rng rng(21);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {5, 8, 1}, {9, 4, 6}, {17, 12, 13}};
  for (const auto& [input_dim, hidden, batch] : shapes) {
    LstmCell cell(input_dim, hidden);
    cell.init_params(rng);

    const Matrix x = random_matrix(rng, batch, input_dim);
    LstmBatchCache cache;
    cache.h_prev = random_matrix(rng, batch, hidden);
    cache.c_prev = random_matrix(rng, batch, hidden);

    Matrix wT, uT, a;
    transpose(cell.w(), wT);
    transpose(cell.u(), uT);
    cell.forward_batch(x, wT, uT, cache, a);

    LstmStepCache ref;
    for (std::size_t r = 0; r < batch; ++r) {
      cell.forward(x.row(r), cache.h_prev.row(r), cache.c_prev.row(r), wT,
                   uT, ref);
      for (std::size_t j = 0; j < hidden; ++j) {
        ASSERT_NEAR(cache.h(r, j), ref.h[j], 1e-5);
        ASSERT_NEAR(cache.c(r, j), ref.c[j], 1e-5);
      }
    }
  }
}

TEST(BatchParity, CellForwardBatchRejectsMalformedIdRows) {
  // The serve step's entry point checks the ids its gather indexes by.
  Rng rng(22);
  LstmCell cell(4, 3);
  cell.init_params(rng);
  Matrix wT, uT, a;
  transpose(cell.w(), wT);
  transpose(cell.u(), uT);
  LstmBatchCache cache;
  cache.h_prev = Matrix(1, 3);
  cache.c_prev = Matrix(1, 3);
  OneHotRows x;
  x.clear(4);
  x.ids = {1, 3};
  x.end_row();
  EXPECT_NO_THROW(cell.forward_batch(x, wT, uT, cache, a));
  for (const std::vector<std::uint32_t>& bad :
       {std::vector<std::uint32_t>{3, 1}, std::vector<std::uint32_t>{4}}) {
    x.clear(4);
    x.ids = bad;  // not ascending; out of range
    x.end_row();
    EXPECT_THROW(cell.forward_batch(x, wT, uT, cache, a),
                 std::invalid_argument);
  }
}

// ---- model-level parity -----------------------------------------------------

SequenceModelConfig small_config(std::size_t input_dim, std::size_t classes) {
  SequenceModelConfig cfg;
  cfg.input_dim = input_dim;
  cfg.num_classes = classes;
  cfg.hidden_dims = {10, 6};
  return cfg;
}

/// Windows of different lengths over random multi-hot id rows.
std::vector<Fragment> random_fragments(Rng& rng, std::size_t count,
                                       std::size_t input_dim,
                                       std::size_t classes) {
  std::vector<Fragment> frags(count);
  for (std::size_t f = 0; f < count; ++f) {
    frags[f].inputs.clear(input_dim);
    const std::size_t steps = 1 + rng.index(9);
    for (std::size_t t = 0; t < steps; ++t) {
      for (std::size_t j = 0; j < input_dim; ++j) {
        if (rng.bernoulli(0.4)) {
          frags[f].inputs.ids.push_back(static_cast<std::uint32_t>(j));
        }
      }
      frags[f].inputs.end_row();
      frags[f].targets.push_back(rng.index(classes));
    }
  }
  return frags;
}

std::vector<WindowRef> whole_windows(const std::vector<Fragment>& frags) {
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) windows.push_back(f.window());
  return windows;
}

TEST(BatchParity, WindowBatchLossAndGradsMatchPerSample) {
  Rng rng(31);
  const std::size_t input_dim = 7;
  const std::size_t classes = 5;
  SequenceModel model(small_config(input_dim, classes));
  model.init_params(rng);

  const auto frags = random_fragments(rng, 6, input_dim, classes);

  // Reference: per-sample gradients summed over the same windows.
  model.zero_grads();
  double ref_loss = 0.0;
  std::vector<std::vector<float>> xs;
  for (const Fragment& f : frags) {
    f.window().densify(xs);
    ref_loss += model.train_fragment(xs, f.targets);
  }
  std::vector<Matrix> ref_grads;
  for (const ParamSlot& s : model.param_slots()) ref_grads.push_back(*s.grad);

  // Batched: one micro-batch over all windows at once.
  const std::vector<WindowRef> windows = whole_windows(frags);
  ModelGrads grads = model.make_grads();
  BatchWorkspace ws;
  const double batch_loss = model.train_window_batch(windows, grads, ws);

  EXPECT_NEAR(batch_loss, ref_loss, 1e-5 * std::max(1.0, std::abs(ref_loss)));
  for (std::size_t k = 0; k < ref_grads.size(); ++k) {
    expect_matrix_near(ref_grads[k], grads.in_param_layout(k), 1e-4,
                       "accumulated grads");
  }
}

TEST(BatchParity, WindowBatchIsBitIdenticalAcrossPools) {
  Rng rng(32);
  const std::size_t input_dim = 6;
  const std::size_t classes = 4;
  SequenceModel model(small_config(input_dim, classes));
  model.init_params(rng);
  const auto frags = random_fragments(rng, 5, input_dim, classes);
  const std::vector<WindowRef> windows = whole_windows(frags);

  ModelGrads g1 = model.make_grads();
  BatchWorkspace ws1;
  const double l1 = model.train_window_batch(windows, g1, ws1, nullptr);

  ThreadPool pool(4);
  ModelGrads g2 = model.make_grads();
  BatchWorkspace ws2;
  const double l2 = model.train_window_batch(windows, g2, ws2, &pool);

  EXPECT_EQ(l1, l2);  // bitwise
  for (std::size_t k = 0; k < g1.g.size(); ++k) {
    for (std::size_t i = 0; i < g1.g[k].size(); ++i) {
      ASSERT_EQ(g1.g[k].data()[i], g2.g[k].data()[i]);
    }
  }
}

/// The per-step batched engine whole-window BPTT replaced (DESIGN.md §4):
/// every product runs once per timestep on that step's B_t rows, layer 0
/// as a dense 0/1 matmul. Returns the loss; gradients land in `grads`.
double per_step_reference(const SequenceModel& model,
                          const std::vector<Fragment>& frags,
                          ModelGrads& grads) {
  std::vector<std::size_t> order(frags.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](auto a, auto b) {
    return frags[a].steps() > frags[b].steps();
  });
  const std::size_t T = frags[order.front()].steps();
  std::vector<std::size_t> rows(T, 0);
  for (std::size_t f : order) {
    for (std::size_t t = 0; t < frags[f].steps(); ++t) ++rows[t];
  }
  const std::size_t L = model.lstm().num_layers();
  // in[l][t]: layer l's step-t input; steps[l][t]: its gate caches.
  std::vector<std::vector<Matrix>> in(L + 1, std::vector<Matrix>(T));
  std::vector<std::vector<LstmBatchCache>> steps(
      L, std::vector<LstmBatchCache>(T));
  for (std::size_t t = 0; t < T; ++t) {
    in[0][t].resize(rows[t], model.input_dim());
    for (std::size_t r = 0; r < rows[t]; ++r) {
      const OneHotRows& x = frags[order[r]].inputs;
      for (std::uint32_t k = x.offsets[t]; k < x.offsets[t + 1]; ++k) {
        in[0][t](r, x.ids[k]) = 1.0f;
      }
    }
  }
  for (std::size_t l = 0; l < L; ++l) {
    const LstmCell& cell = model.lstm().layer(l).cell();
    const std::size_t H = cell.hidden_dim();
    Matrix wT, uT, a;
    transpose(cell.w(), wT);
    transpose(cell.u(), uT);
    for (std::size_t t = 0; t < T; ++t) {
      LstmBatchCache& c = steps[l][t];
      if (t == 0) {
        c.h_prev.resize(rows[0], H);
        c.c_prev.resize(rows[0], H);
      } else {
        copy_top_rows(steps[l][t - 1].h, rows[t], c.h_prev);
        copy_top_rows(steps[l][t - 1].c, rows[t], c.c_prev);
      }
      broadcast_rows(cell.b(), rows[t], a);
      matmul_nn_acc(in[l][t], wT, a);
      matmul_nn_acc(c.h_prev, uT, a);
      lstm_gates_forward(a, c.c_prev, c.i, c.f, c.o, c.g, c.c, c.tanh_c, c.h);
      in[l + 1][t] = c.h;
    }
  }
  const SoftmaxLayer& sm = model.output_layer();
  Matrix smT, probs;
  transpose(sm.w(), smT);
  std::vector<Matrix> dh(T);
  double loss = 0.0;
  for (std::size_t t = 0; t < T; ++t) {
    broadcast_rows(sm.b(), rows[t], probs);
    matmul_nn_acc(in[L][t], smT, probs);
    softmax_rows(probs);
    for (std::size_t r = 0; r < rows[t]; ++r) {
      const std::size_t target = frags[order[r]].targets[t];
      loss += -std::log(std::max(static_cast<double>(probs(r, target)), 1e-12));
      probs(r, target) -= 1.0f;
    }
    matmul_tn_acc(probs, in[L][t], grads.g[3 * L]);
    col_sum_acc(probs, grads.g[3 * L + 1]);
    matmul_nn(probs, sm.w(), dh[t]);
  }
  for (std::size_t l = L; l-- > 0;) {
    const LstmCell& cell = model.lstm().layer(l).cell();
    Matrix da, dh_carry, dc_carry, dh_prev, dc_prev;
    const Matrix empty;
    for (std::size_t t = T; t-- > 0;) {
      const LstmBatchCache& c = steps[l][t];
      if (t + 1 < T) add_top_rows(dh[t], dh_carry);
      da.resize(rows[t], 4 * cell.hidden_dim());
      lstm_gates_backward(c.i, c.f, c.o, c.g, c.c_prev, c.tanh_c, dh[t],
                          t + 1 < T ? dc_carry : empty, da, dc_prev);
      if (grads.transposed[3 * l]) {  // the lanes' layout of this slot
        matmul_tn_acc(in[l][t], da, grads.g[3 * l]);
      } else {
        matmul_tn_acc(da, in[l][t], grads.g[3 * l]);
      }
      matmul_tn_acc(da, c.h_prev, grads.g[3 * l + 1]);
      col_sum_acc(da, grads.g[3 * l + 2]);
      if (l > 0) matmul_nn(da, cell.w(), dh[t]);  // dh_out of layer l-1
      matmul_nn(da, cell.u(), dh_prev);
      std::swap(dh_carry, dh_prev);
      std::swap(dc_carry, dc_prev);
    }
  }
  return loss;
}

TEST(BatchParity, WholeWindowBpttMatchesPerStepReferenceBitwise) {
  // Stacking keeps every element's FMA chain, so on the FMA backends the
  // whole-window engine must reproduce the per-step engine bit for bit —
  // with three layers, ragged window lengths and multi-hot layer-0 rows.
  Rng rng(35);
  SequenceModelConfig cfg;
  cfg.input_dim = 19;
  cfg.num_classes = 7;
  cfg.hidden_dims = {9, 16, 5};
  SequenceModel model(cfg);
  model.init_params(rng);
  const auto frags = random_fragments(rng, 7, cfg.input_dim, cfg.num_classes);
  const std::vector<WindowRef> windows = whole_windows(frags);
  for (const std::string& name : available_kernel_backends()) {
    if (name != "avx2" && name != "avx512") continue;
    ASSERT_TRUE(select_kernel_backend(name));
    ModelGrads want = model.make_grads();
    const double want_loss = per_step_reference(model, frags, want);
    ModelGrads got = model.make_grads();
    BatchWorkspace ws;
    EXPECT_EQ(model.train_window_batch(windows, got, ws), want_loss) << name;
    for (std::size_t k = 0; k < got.g.size(); ++k) {
      for (std::size_t i = 0; i < got.g[k].size(); ++i) {
        ASSERT_EQ(got.g[k].data()[i], want.g[k].data()[i])
            << name << " slot " << k << " element " << i;
      }
    }
  }
  select_kernel_backend_from_env();
}

TEST(BatchParity, WindowBatchRejectsMalformedIdRows) {
  // train_window_batch copies layer-0 id rows; an id out of range, ids out
  // of order, or rows past the fragment's end must be refused.
  Rng rng(33);
  SequenceModel model(small_config(3, 2));
  model.init_params(rng);
  const std::vector<std::size_t> targets = {1, 0};
  const auto rejects = [&](const OneHotRows& inputs, std::size_t first) {
    const WindowRef window{&inputs, first, targets};
    ModelGrads grads = model.make_grads();
    BatchWorkspace ws;
    EXPECT_THROW(model.train_window_batch(std::span(&window, 1), grads, ws),
                 std::invalid_argument);
  };
  OneHotRows x;
  x.clear(3);
  x.ids = {1, 0, 3};  // row 1 holds id 3 of a 3-wide row
  x.offsets = {0, 1, 3};
  rejects(x, 0);
  x.ids = {1, 2, 0};  // row 1 not ascending
  rejects(x, 0);
  x.ids = {1, 0, 2};
  rejects(x, 1);  // rows 1..2 of a 2-row fragment
}

TEST(BatchKernels, OneHotRowsAppendRow) {
  OneHotRows x;
  x.clear(4);
  x.ids = {0, 3};
  x.offsets = {0, 2, 2};
  ASSERT_EQ(x.rows(), 2u);
  OneHotRows y;
  y.clear(4);
  y.append_row(x, 1);
  y.append_row(x, 0);
  EXPECT_EQ(y.offsets, (std::vector<std::uint32_t>{0, 0, 2}));
  EXPECT_EQ(y.ids, (std::vector<std::uint32_t>{0, 3}));
  EXPECT_THROW(y.append_row(x, 2), std::invalid_argument);
  OneHotRows narrow;
  narrow.clear(3);
  EXPECT_THROW(narrow.append_row(x, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::nn
