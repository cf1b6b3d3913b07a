// A single LSTM layer: an LstmCell with the sequence APIs training uses for
// BPTT — the per-window reference pass and the batched whole-window pass.
// Streaming inference steps the cell through StackedLstm.
#pragma once

#include <array>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "nn/lstm_cell.hpp"

namespace mlad::nn {

/// Where each timestep's rows sit in a window batch's stacked buffers
/// (DESIGN.md §4). Windows are sorted longest-first, so step t holds the
/// B_t sequences still active, B_t non-increasing. Forward order stacks the
/// steps by ascending t — the order the output layer and the next layer up
/// read them; backward order by descending t — the order BPTT visits them,
/// and so the accumulation order of the weight gradients.
struct StepLayout {
  std::vector<std::size_t> rows;  ///< B_t
  std::vector<std::size_t> fwd;   ///< first row of step t, forward order
  std::vector<std::size_t> bwd;   ///< first row of step t, backward order
  std::size_t total = 0;          ///< N = Σ B_t

  /// Throws std::invalid_argument unless step_rows is non-increasing.
  void assign(std::span<const std::size_t> step_rows);
  std::size_t steps() const { return rows.size(); }
};

/// Per-minibatch BPTT tape for one layer's whole-window pass. Reused
/// across minibatches so the steady state is allocation-free (the matrices
/// keep their capacity).
struct LayerBatchTape {
  std::vector<LstmBatchCache> steps;  ///< [t] gates, c, tanh_c, h (B_t rows)
  Matrix a;         ///< N×4H pre-activations, forward order
  Matrix h;         ///< N×H outputs, forward order (the next layer's input)
  Matrix zeros;     ///< B_0×H zero state entering step 0
  Matrix da;        ///< N×4H gate gradients, backward order
  Matrix h_prev;    ///< N×H entering states, backward order
  Matrix x;         ///< N×I dense input, backward order (layers above 0)
  OneHotRows ids;   ///< 0/1 input, backward order (layer 0)
  Matrix dx;        ///< N×I ∂L/∂x, backward order (layers above 0)
  Matrix wT, uT;    ///< self-transposed parameters (no caller cache)
  std::array<Matrix, 2> dh_carry;  ///< ping-pong recurrent ∂L/∂h
  std::array<Matrix, 2> dc_carry;  ///< ping-pong recurrent ∂L/∂c
};

class LstmLayer {
 public:
  LstmLayer(std::size_t input_dim, std::size_t hidden_dim)
      : cell_(input_dim, hidden_dim) {}

  void init_params(Rng& rng) { cell_.init_params(rng); }

  std::size_t input_dim() const { return cell_.input_dim(); }
  std::size_t hidden_dim() const { return cell_.hidden_dim(); }

  /// Sequence forward with caches kept for BPTT. State starts at zero.
  /// outputs[t] is h_t; caches.size() == xs.size() on return. Transposes
  /// the weights once per call.
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

  /// Batched forward over a whole window batch whose steps are stacked in
  /// forward order (`layout`): the input product runs once over all N rows,
  /// then a per-step loop adds H_{t-1} Uᵀ and applies the gates. Layer 0
  /// takes its 0/1 input as ids (already checked, see
  /// LstmCell::input_product), the layers above the layer below's tape.h.
  /// State starts at zero; results land in `tape`. Const — gradients and
  /// caches are all caller-owned.
  ///
  /// `wT`/`uT`, when both non-null, are caller-cached transposes of the
  /// cell's current w/u (e.g. SequenceModel::TransposeCache, DESIGN.md §11);
  /// the per-call transpose into tape.wT/uT is then skipped. They must be
  /// exact transposes of the current parameters — results are bit-identical
  /// to the self-transposing path.
  void forward_sequence_batch(const OneHotRows& x, const StepLayout& layout,
                              LayerBatchTape& tape, ThreadPool* pool = nullptr,
                              const Matrix* wT = nullptr,
                              const Matrix* uT = nullptr) const;
  void forward_sequence_batch(const Matrix& x, const StepLayout& layout,
                              LayerBatchTape& tape, ThreadPool* pool = nullptr,
                              const Matrix* wT = nullptr,
                              const Matrix* uT = nullptr) const;

  /// Batched BPTT over a tape filled by forward_sequence_batch with the
  /// same `x`. `dh_out` (N×H) is ∂L/∂h from above, stacked in backward
  /// order if `dh_backward_order`, else in forward order; it is modified in
  /// place (recurrent additions). The per-step loop runs the gates backward
  /// and dA_t U; the parameter gradients then accumulate into
  /// grad_w/grad_u/grad_b in one product each over the stacked dA — for
  /// 0/1 ids into the transposed grad_w (input_dim × 4H). For a dense x (a
  /// layer above 0), ∂L/∂x lands in tape.dx in backward order; layer 0's
  /// input gradient has no consumer.
  void backward_sequence_batch(const OneHotRows& x, const StepLayout& layout,
                               Matrix& dh_out, bool dh_backward_order,
                               LayerBatchTape& tape, Matrix& grad_w,
                               Matrix& grad_u, Matrix& grad_b,
                               ThreadPool* pool = nullptr) const;
  void backward_sequence_batch(const Matrix& x, const StepLayout& layout,
                               Matrix& dh_out, bool dh_backward_order,
                               LayerBatchTape& tape, Matrix& grad_w,
                               Matrix& grad_u, Matrix& grad_b,
                               ThreadPool* pool = nullptr) const;

  LstmCell& cell() { return cell_; }
  const LstmCell& cell() const { return cell_; }

 private:
  /// The per-step loops shared by both input kinds.
  void recurrent_forward(const StepLayout& layout, LayerBatchTape& tape,
                         const Matrix& uT, ThreadPool* pool) const;
  void recurrent_backward(const StepLayout& layout, Matrix& dh_out,
                          bool dh_backward_order, LayerBatchTape& tape,
                          ThreadPool* pool) const;
  /// The caller's cached (wT, uT) when both are given, else fresh
  /// transposes in tape.wT/uT.
  std::pair<const Matrix&, const Matrix&> transposes(
      LayerBatchTape& tape, const Matrix* wT, const Matrix* uT) const;

  LstmCell cell_;
};

}  // namespace mlad::nn
