// The stacked (multi-layer) LSTM of Fig. 2: the one-hot discretized package
// features enter the bottom layer; each layer feeds the next; the top
// layer's hidden vector goes to the softmax classifier (sequence_model.hpp).
#pragma once

#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/lstm_layer.hpp"

namespace mlad::nn {

/// Snapshot of the recurrent state of every layer, for streaming inference.
struct StackedLstmState {
  std::vector<std::vector<float>> h;  ///< per layer
  std::vector<std::vector<float>> c;  ///< per layer
};

/// Per-sequence caches for BPTT across all layers.
struct StackedLstmCache {
  /// caches[layer][t]
  std::vector<std::vector<LstmStepCache>> caches;
  /// outputs[layer][t] = h_t of that layer (the input of layer+1)
  std::vector<std::vector<std::vector<float>>> outputs;
};

/// Batched BPTT tape across all layers (DESIGN.md §4); reused across
/// minibatches so the steady state is allocation-free.
struct StackedBatchTape {
  StepLayout layout;                   ///< rows of every step, stacked
  std::vector<LayerBatchTape> layers;  ///< [layer]
};

/// Rolling state + scratch for S concurrent inference streams advanced one
/// timestep per call through (S×dim) batched kernels (DESIGN.md §4). Between
/// calls the live state of layer l sits in layers[l].h_prev / c_prev; the
/// other cache members are per-tick scratch. Streams end from the back:
/// callers order streams so the ones that finish first carry the highest row
/// indices, and drop them with shrink_stream_batch.
struct StreamBatchState {
  std::vector<LstmBatchCache> layers;  ///< [layer]; h_prev/c_prev = state
  std::vector<Matrix> wT, uT;          ///< [layer] cached transposed params
  Matrix a;                            ///< B×4H pre-activation scratch
  Matrix shrink_tmp;
};

class StackedLstm {
 public:
  /// `hidden_dims` gives the width of each stacked layer, bottom first.
  StackedLstm(std::size_t input_dim, std::span<const std::size_t> hidden_dims);

  void init_params(Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t output_dim() const { return layers_.back().hidden_dim(); }
  std::size_t num_layers() const { return layers_.size(); }
  LstmLayer& layer(std::size_t i) { return layers_.at(i); }
  const LstmLayer& layer(std::size_t i) const { return layers_.at(i); }

  /// Fresh all-zero state.
  StackedLstmState make_state() const;

  /// Streaming step through the whole stack. Returns the top hidden vector
  /// (valid until the next call with the same `out` buffer).
  std::span<const float> step(std::span<const float> x,
                              StackedLstmState& state,
                              LstmStepCache& scratch) const;

  /// Training-time forward over a fragment; fills `cache`, returns top
  /// outputs per step.
  std::vector<std::vector<float>> forward_sequence(
      std::span<const std::vector<float>> xs, StackedLstmCache& cache) const;

  /// BPTT through all layers. `dh_top[t]` is ∂L/∂(top h_t). Parameter
  /// gradients accumulate in each cell.
  void backward_sequence(const StackedLstmCache& cache,
                         std::span<const std::vector<float>> dh_top);

  // ---- Batched entry points (DESIGN.md §4) -------------------------------

  /// Batched training-time forward over a window batch: x holds the 0/1
  /// input rows of every step stacked in forward order, step t holding the
  /// step_rows[t] sequences still active (non-increasing). Top-layer
  /// outputs are tape.layers.back().h, in the same order. Const —
  /// everything lands in the tape.
  ///
  /// `wT`/`uT`, when non-empty, hold one caller-cached transpose of each
  /// layer's w/u (size == num_layers()); the per-call transposes are then
  /// skipped (DESIGN.md §11). Must match the current parameters exactly.
  void forward_sequence_batch(const OneHotRows& x,
                              std::span<const std::size_t> step_rows,
                              StackedBatchTape& tape,
                              ThreadPool* pool = nullptr,
                              std::span<const Matrix> wT = {},
                              std::span<const Matrix> uT = {}) const;

  /// Batched BPTT for the same `x`. `dh_top` (N×H_top, forward order) is
  /// consumed/modified in place. `grads` receives the parameter gradients,
  /// three matrices per layer in (w, u, b) order — the LSTM prefix of
  /// SequenceModel::param_slots().
  void backward_sequence_batch(const OneHotRows& x, StackedBatchTape& tape,
                               Matrix& dh_top, std::span<Matrix> grads,
                               ThreadPool* pool = nullptr) const;

  // ---- Batched streaming inference (multi-stream stepping) ---------------

  /// Zero an S-stream batched state and cache the weight transposes (call
  /// again after any parameter update to refresh them).
  void begin_stream_batch(std::size_t streams, StreamBatchState& sb) const;

  /// Advance every stream one timestep: x holds B 0/1 rows of input_dim
  /// columns as active ids, B = current stream count, so layer 0's input
  /// product is a gather (DESIGN.md §2). Returns the top layer's (B×H_top)
  /// hidden block, valid until the next call. `pool` only partitions kernel
  /// rows and never changes results (§5).
  const Matrix& step_stream_batch(const OneHotRows& x, StreamBatchState& sb,
                                  ThreadPool* pool = nullptr) const;

  /// Keep only the first n streams (rows) of the state.
  void shrink_stream_batch(std::size_t n, StreamBatchState& sb) const;

  /// Activate n - current streams of fresh (all-zero) state at the back,
  /// preserving every existing stream's rows bit-for-bit. Freed capacity
  /// from an earlier shrink is recycled, so a join after a leave does not
  /// reallocate. Requires begin_stream_batch to have run on `sb`.
  void grow_stream_batch(std::size_t n, StreamBatchState& sb) const;

  /// Swap the state rows of streams a and b (streams are independent, so
  /// this is a pure relabeling — used to move a leaving stream to the back
  /// before shrink_stream_batch).
  void swap_stream_rows(std::size_t a, std::size_t b,
                        StreamBatchState& sb) const;

  /// Re-transpose the cached wT/uT from the CURRENT parameters without
  /// touching any stream's h_prev/c_prev rows — call after an optimizer
  /// step or a weight hot-swap so the next step_stream_batch uses the new
  /// weights while every live stream keeps its state.
  void refresh_stream_batch(StreamBatchState& sb) const;

  /// Copy stream s's per-layer recurrent state out of / back into the
  /// batched state (park/unpark in the serve engine's straggler policy).
  void extract_stream_state(const StreamBatchState& sb, std::size_t s,
                            StackedLstmState& out) const;
  void restore_stream_state(StreamBatchState& sb, std::size_t s,
                            const StackedLstmState& state) const;

  void zero_grads();
  std::size_t param_count() const;

 private:
  std::size_t input_dim_;
  std::vector<LstmLayer> layers_;
};

}  // namespace mlad::nn
