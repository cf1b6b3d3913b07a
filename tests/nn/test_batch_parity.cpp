// Parity between the batched engine (kernels.hpp + *_batch entry points)
// and the sample-at-a-time reference path: forward outputs and accumulated
// gradients must agree within 1e-5 on randomized shapes, and the batched
// trainer must be bit-identical across thread counts (DESIGN.md §5).
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
      cell.forward(x.row(r), cache.h_prev.row(r), cache.c_prev.row(r), ref);
      for (std::size_t j = 0; j < hidden; ++j) {
        ASSERT_NEAR(cache.h(r, j), ref.h[j], 1e-5);
        ASSERT_NEAR(cache.c(r, j), ref.c[j], 1e-5);
      }
    }
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

/// A random 0/1 row — the batched trainer's layer-0 input contract.
std::vector<float> random_multi_hot(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (float& x : v) x = rng.bernoulli(0.4) ? 1.0f : 0.0f;
  return v;
}

/// Windows of different lengths over random multi-hot inputs.
std::vector<Fragment> random_fragments(Rng& rng, std::size_t count,
                                       std::size_t input_dim,
                                       std::size_t classes) {
  std::vector<Fragment> frags(count);
  for (std::size_t f = 0; f < count; ++f) {
    const std::size_t steps = 1 + rng.index(9);
    for (std::size_t t = 0; t < steps; ++t) {
      frags[f].inputs.push_back(random_multi_hot(rng, input_dim));
      frags[f].targets.push_back(rng.index(classes));
    }
  }
  return frags;
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
  for (const Fragment& f : frags) {
    ref_loss += model.train_fragment(f.inputs, f.targets);
  }
  std::vector<Matrix> ref_grads;
  for (const ParamSlot& s : model.param_slots()) ref_grads.push_back(*s.grad);

  // Batched: one micro-batch over all windows at once.
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) windows.push_back({f.inputs, f.targets});
  ModelGrads grads = model.make_grads();
  BatchWorkspace ws;
  const double batch_loss = model.train_window_batch(windows, grads, ws);

  EXPECT_NEAR(batch_loss, ref_loss, 1e-5 * std::max(1.0, std::abs(ref_loss)));
  const auto slots = model.param_slots();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    expect_matrix_near(ref_grads[k], grads.g[k], 1e-4, "accumulated grads");
  }
}

TEST(BatchParity, WindowBatchIsBitIdenticalAcrossPools) {
  Rng rng(32);
  const std::size_t input_dim = 6;
  const std::size_t classes = 4;
  SequenceModel model(small_config(input_dim, classes));
  model.init_params(rng);
  const auto frags = random_fragments(rng, 5, input_dim, classes);
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) windows.push_back({f.inputs, f.targets});

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
      const auto& x = frags[order[r]].inputs[t];
      std::copy(x.begin(), x.end(), in[0][t].row(r).begin());
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
      matmul_tn_acc(da, in[l][t], grads.g[3 * l]);
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
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) windows.push_back({f.inputs, f.targets});
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

TEST(BatchParity, WindowBatchRejectsNonBinaryInputs) {
  // train_window_batch feeds layer 0 as ids (DESIGN.md §4): a value other
  // than 0/1 cannot be represented and must be refused, not rounded.
  Rng rng(33);
  SequenceModel model(small_config(3, 2));
  model.init_params(rng);
  const std::vector<std::vector<float>> inputs = {{0.0f, 1.0f, 0.0f},
                                                  {0.0f, 0.5f, 1.0f}};
  const std::vector<std::size_t> targets = {1, 0};
  const WindowRef window{inputs, targets};
  ModelGrads grads = model.make_grads();
  BatchWorkspace ws;
  EXPECT_THROW(model.train_window_batch(std::span(&window, 1), grads, ws),
               std::invalid_argument);
}

TEST(BatchKernels, OneHotRowsFromDense) {
  OneHotRows x;
  x.clear(4);
  x.append_dense(std::vector<float>{1.0f, 0.0f, -0.0f, 1.0f});
  x.append_dense(std::vector<float>{0.0f, 0.0f, 0.0f, 0.0f});
  ASSERT_EQ(x.rows(), 2u);
  EXPECT_EQ(x.ids, (std::vector<std::uint32_t>{0, 3}));
  OneHotRows y;
  y.clear(4);
  y.append_row(x, 1);
  y.append_row(x, 0);
  EXPECT_EQ(y.offsets, (std::vector<std::uint32_t>{0, 0, 2}));
  EXPECT_THROW(x.append_dense(std::vector<float>{1.0f, 2.0f, 0.0f, 0.0f}),
               std::invalid_argument);
  EXPECT_THROW(x.append_dense(std::vector<float>{1.0f}),
               std::invalid_argument);
}

// ---- trainer-level determinism ---------------------------------------------

TEST(BatchParity, TrainingIsBitIdenticalAcrossThreadCounts) {
  const std::size_t input_dim = 6;
  const std::size_t classes = 4;
  const auto run = [&](std::size_t threads) {
    Rng rng(55);
    SequenceModel model(small_config(input_dim, classes));
    model.init_params(rng);
    Rng data_rng(56);
    const auto frags = random_fragments(data_rng, 10, input_dim, classes);
    Adam opt(3e-3);
    TrainerConfig cfg;
    cfg.epochs = 3;
    cfg.truncate_steps = 4;
    cfg.batch_size = 4;
    cfg.micro_batch = 2;
    cfg.threads = threads;
    Rng train_rng(57);
    return train(model, frags, opt, cfg, train_rng);
  };
  const TrainReport one = run(1);
  const TrainReport four = run(4);
  ASSERT_EQ(one.epoch_losses.size(), four.epoch_losses.size());
  for (std::size_t e = 0; e < one.epoch_losses.size(); ++e) {
    // Identical epoch losses, not just close: the deterministic reduction
    // makes the thread count invisible to the arithmetic.
    ASSERT_EQ(one.epoch_losses[e], four.epoch_losses[e]);
  }
  EXPECT_EQ(one.total_steps, four.total_steps);
}

TEST(BatchParity, BatchedTrainingConvergesLikeSequential) {
  const std::size_t input_dim = 6;
  const std::size_t classes = 3;
  const auto run = [&](std::size_t batch) {
    Rng rng(71);
    SequenceModel model(small_config(input_dim, classes));
    model.init_params(rng);
    Rng data_rng(72);
    const auto frags = random_fragments(data_rng, 8, input_dim, classes);
    Adam opt(5e-3);
    TrainerConfig cfg;
    cfg.epochs = 8;
    cfg.truncate_steps = 6;
    cfg.batch_size = batch;
    Rng train_rng(73);
    return train(model, frags, opt, cfg, train_rng);
  };
  const TrainReport seq = run(1);
  const TrainReport bat = run(4);
  // Same data, same steps; both must actually learn.
  EXPECT_EQ(seq.total_steps, bat.total_steps);
  EXPECT_LT(seq.epoch_losses.back(), seq.epoch_losses.front());
  EXPECT_LT(bat.epoch_losses.back(), bat.epoch_losses.front());
}

}  // namespace
}  // namespace mlad::nn
