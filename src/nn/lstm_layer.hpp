// A single stateful LSTM layer: an LstmCell plus its recurrent state, with
// streaming (one package at a time) and sequence APIs. The detection phase
// runs streaming; training uses the sequence API for BPTT.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/lstm_cell.hpp"

namespace mlad::nn {

/// Per-minibatch BPTT tape for one layer's batched sequence pass. Reused
/// across minibatches so the steady state is allocation-free (the matrices
/// keep their capacity). `dx[t]` doubles as the dh_out of the layer below.
struct LayerBatchTape {
  std::vector<LstmBatchCache> steps;  ///< [t], rows shrink with B_t
  std::vector<Matrix> dx;             ///< [t] ∂L/∂x_t from backward
  Matrix wT, uT;                      ///< cached transposed parameters
  Matrix a, da;                       ///< pre-activation scratch (B×4H)
  std::array<Matrix, 2> dh_carry;     ///< ping-pong recurrent ∂L/∂h
  std::array<Matrix, 2> dc_carry;     ///< ping-pong recurrent ∂L/∂c
};

class LstmLayer {
 public:
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim)
      : cell_(input_dim, hidden_dim),
        h_(hidden_dim, 0.0f),
        c_(hidden_dim, 0.0f) {}

  void init_params(Rng& rng) { cell_.init_params(rng); }

  std::size_t input_dim() const { return cell_.input_dim(); }
  std::size_t hidden_dim() const { return cell_.hidden_dim(); }

  /// Reset the recurrent state to zeros (start of a new fragment).
  void reset_state() {
    std::fill(h_.begin(), h_.end(), 0.0f);
    std::fill(c_.begin(), c_.end(), 0.0f);
  }

  /// Streaming step: consume x, update internal state, return hidden output.
  std::span<const float> step(std::span<const float> x) {
    cell_.forward(x, h_, c_, scratch_);
    h_ = scratch_.h;
    c_ = scratch_.c;
    return h_;
  }

  /// Sequence forward with caches kept for BPTT. State starts at zero.
  /// outputs[t] is h_t; caches.size() == xs.size() on return.
  void forward_sequence(std::span<const std::vector<float>> xs,
                        std::vector<LstmStepCache>& caches,
                        std::vector<std::vector<float>>& outputs) const;

  /// BPTT over a cached sequence. `dh_out[t]` is ∂L/∂h_t from above; the
  /// gradient w.r.t. each input is written to `dx[t]`. Parameter gradients
  /// accumulate into the cell.
  void backward_sequence(const std::vector<LstmStepCache>& caches,
                         std::span<const std::vector<float>> dh_out,
                         std::vector<std::vector<float>>& dx);

  // ---- Batched sequence entry points (DESIGN.md §4) -----------------------

  /// Batched forward over a whole (sorted) window batch: xs[t] holds the
  /// B_t × input_dim inputs of the sequences still active at step t, with
  /// B_t non-increasing in t (windows sorted by length, longest first).
  /// State starts at zero; per-step results land in tape.steps. Const —
  /// gradients and caches are all caller-owned.
  ///
  /// `wT`/`uT`, when both non-null, are caller-cached transposes of the
  /// cell's current w/u (e.g. SequenceModel::TransposeCache, DESIGN.md §11);
  /// the per-call transpose into tape.wT/uT is then skipped. They must be
  /// exact transposes of the current parameters — results are bit-identical
  /// to the self-transposing path.
  void forward_sequence_batch(std::span<const Matrix* const> xs,
                              LayerBatchTape& tape, ThreadPool* pool = nullptr,
                              const Matrix* wT = nullptr,
                              const Matrix* uT = nullptr) const;

  /// Batched BPTT over a tape filled by forward_sequence_batch. `dh_out[t]`
  /// (B_t×H) is ∂L/∂h_t from above and is modified in place (recurrent
  /// additions); with `need_dx`, ∂L/∂x_t lands in tape.dx[t] (the bottom
  /// layer passes false: nothing consumes its input gradient). Parameter
  /// gradients accumulate into grad_w/grad_u/grad_b.
  void backward_sequence_batch(std::span<const Matrix* const> xs,
                               std::span<Matrix> dh_out, LayerBatchTape& tape,
                               Matrix& grad_w, Matrix& grad_u, Matrix& grad_b,
                               bool need_dx, ThreadPool* pool = nullptr) const;

  LstmCell& cell() { return cell_; }
  const LstmCell& cell() const { return cell_; }

  std::span<const float> hidden() const { return h_; }
  std::span<const float> cell_state() const { return c_; }
  /// Overwrite the recurrent state (used by detector snapshot/restore).
  void set_state(std::span<const float> h, std::span<const float> c);

 private:
  LstmCell cell_;
  std::vector<float> h_;
  std::vector<float> c_;
  LstmStepCache scratch_;
};

}  // namespace mlad::nn
