// The complete model of Fig. 2: stacked LSTM layers + softmax classifier
// over the signature vocabulary. This is the paper's time-series predictor
//   Pr(s | c(t-1), c(t-2), …)  ∀ s ∈ S.
//
// Inputs are the one-hot-encoded discretized feature vectors c(t) (plus the
// extra "noisy" bit of §V-A-3); the target at step t is the *next* package's
// signature id. Fragment alignment is the caller's job (see detect/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"
#include "nn/stacked_lstm.hpp"

namespace mlad::nn {

struct SequenceModelConfig {
  std::size_t input_dim = 0;    ///< one-hot width of c(t) (+1 noisy bit)
  std::size_t num_classes = 0;  ///< |S|, size of the signature database
  std::vector<std::size_t> hidden_dims = {256, 256};  ///< paper default
};

/// A view of one training window: rows [first, first + steps()) of a
/// fragment's id-encoded layer-0 inputs; row first + t predicts targets[t].
struct WindowRef {
  const OneHotRows* inputs = nullptr;
  std::size_t first = 0;
  std::span<const std::size_t> targets;

  std::size_t steps() const { return targets.size(); }
  /// Write the window's rows as dense 0/1 vectors into `out` (resized,
  /// its vectors reused).
  void densify(std::vector<std::vector<float>>& out) const;
};

/// Caller-owned gradient buffers, one Matrix per param_slots() entry (per
/// layer w, u, b; then softmax w, b). SequenceModel::make_grads decides
/// each buffer's layout and records it in `transposed`: a transposed slot
/// (layer 0's input weights, input_dim × 4H, as its row scatter writes
/// it) holds the transpose of its parameter's gradient. Readers check the
/// flag (or use in_param_layout) instead of assuming a slot.
/// Micro-batches accumulate into their own ModelGrads so the model stays
/// const during the parallel section; the trainer then merges lanes in a
/// fixed order (DESIGN.md §5).
struct ModelGrads {
  std::vector<Matrix> g;
  std::vector<bool> transposed;  ///< [slot] g[slot] is stored transposed

  void zero() {
    for (Matrix& m : g) m.fill(0.0f);
  }
  /// Slot k's gradient in its parameter's layout (a copy).
  Matrix in_param_layout(std::size_t k) const;
};

/// Scratch for one batched forward+backward pass (train_window_batch);
/// reusing it across minibatches makes the steady state allocation-free.
/// Every step's rows are stacked in forward order (StepLayout).
struct BatchWorkspace {
  StackedBatchTape tape;
  OneHotRows x;                       ///< N layer-0 input rows, as ids
  std::vector<std::size_t> targets;   ///< N next-signature targets
  std::vector<std::size_t> step_rows; ///< B_t, windows active at step t
  Matrix probs;                   ///< N × C softmax scratch (then dlogits)
  Matrix dh_top;                  ///< N × H_top ∂L/∂(top h)
  Matrix softmax_wT;              ///< H_top × C cached transpose
  std::vector<std::size_t> order; ///< windows sorted longest-first
};

/// Per-model cache of every weight transpose the batched forward needs
/// (DESIGN.md §11) — and, in SequenceModel::State, the single-stream
/// gemv_add products (§2). Weights only change at optimizer steps, so the
/// trainer refreshes this once per step instead of once per lane per
/// minibatch; the cached copies are exact transposes, so training results
/// are bit-identical to the self-transposing path. Read-only during the
/// parallel lane section — safe to share across concurrent micro-batches.
struct TransposeCache {
  std::vector<Matrix> wT, uT;  ///< [layer] input/recurrent weight transposes
  Matrix softmax_wT;           ///< H_top × C classifier weight transpose
  /// SequenceModel::params_version() the copies were built from; 0 = never
  /// built. A cache whose version differs from the model's is stale.
  std::uint64_t version = 0;
};

class SequenceModel {
 public:
  explicit SequenceModel(const SequenceModelConfig& config);

  /// Initialize all parameters from `rng` (deterministic given the seed).
  void init_params(Rng& rng);

  const SequenceModelConfig& config() const { return config_; }
  std::size_t input_dim() const { return config_.input_dim; }
  std::size_t num_classes() const { return config_.num_classes; }

  // ---- Training -----------------------------------------------------------

  /// Forward + BPTT over one fragment — the per-window reference step.
  /// `xs[t]` predicts `targets[t]`. Accumulates gradients (callers
  /// zero_grads()/optimizer-step around it) and returns the summed
  /// cross-entropy loss over the fragment. Transposes every weight once.
  double train_fragment(std::span<const std::vector<float>> xs,
                        std::span<const std::size_t> targets);

  /// Batched forward + BPTT over up to a micro-batch of windows (DESIGN.md
  /// §4): only the recurrent products run per timestep; the input and
  /// output layers and the weight gradients run once over the stacked rows
  /// of every step. The windows' id rows are copied into the stacked
  /// layer-0 input (throws std::invalid_argument on rows out of range, a
  /// width mismatch or ids out of range or not ascending). The model is
  /// const: gradients accumulate into `grads` (zeroed by the caller; g[0]
  /// transposed, see ModelGrads), so several
  /// micro-batches can run concurrently. Returns the summed CE loss.
  /// Matches train_fragment's math to float-rounding (parity-tested).
  ///
  /// `tcache`, when non-null and current (its version is the model's),
  /// supplies the weight transposes (refresh_transpose_cache) so none are
  /// recomputed here; results are bit-identical either way (DESIGN.md §11).
  double train_window_batch(std::span<const WindowRef> windows,
                            ModelGrads& grads, BatchWorkspace& ws,
                            ThreadPool* pool = nullptr,
                            const TransposeCache* tcache = nullptr) const;

  /// Recompute `cache` from the CURRENT parameters and stamp it with
  /// params_version().
  void refresh_transpose_cache(TransposeCache& cache) const;

  /// Stamp of the current parameter values: renewed by init_params,
  /// copy_params_from and params_changed with a value no model in the
  /// process had before (a clone shares it while its weights are equal).
  /// Transpose caches compare it to know they are stale.
  std::uint64_t params_version() const { return params_version_; }
  /// Renew params_version() after writing the parameters through
  /// param_slots() — an optimizer step (MinibatchTrainer does it for its
  /// own steps) or any other in-place edit.
  void params_changed();

  /// Zero-filled gradient buffers shaped like param_slots().
  ModelGrads make_grads() const;

  /// Forward only; returns summed cross-entropy loss (for validation).
  double evaluate_fragment(std::span<const std::vector<float>> xs,
                           std::span<const std::size_t> targets) const;

  /// Count of targets NOT in the predicted top-k over a fragment — the
  /// numerator of the paper's top-k error err_k.
  std::size_t top_k_misses(std::span<const std::vector<float>> xs,
                           std::span<const std::size_t> targets,
                           std::size_t k) const;

  void zero_grads();
  /// Slots for the optimizer: every (param, grad) pair in the model.
  std::vector<ParamSlot> param_slots();

  // ---- Streaming inference (detection phase) ------------------------------

  /// One stream's recurrent state, its step scratch and the weight
  /// transposes its gemv_add products read — built by the first predict
  /// and rebuilt by the first predict after the parameters change, so a
  /// single-stream pass transposes once, not once per package.
  struct State {
    StackedLstmState lstm;
    LstmStepCache scratch;
    TransposeCache weights;
  };

  /// Zero state (no transposes yet; predict builds them).
  State make_state() const;

  /// Rewind `state` to zero h/c, keeping its transposes and buffers.
  void reset_state(State& state) const;

  /// Consume one package's encoded features; emit the next-signature
  /// logits (softmax of them = Pr(s | history)) in `logits`. The top-k
  /// verdict ranks logits directly (DESIGN.md §5). Always reads the
  /// CURRENT parameters: a stale state.weights is refreshed first.
  void predict(State& state, std::span<const float> x,
               std::vector<float>& logits) const;

  /// Rolling state for S concurrent inference streams advanced in lockstep:
  /// one (S×dim) batched kernel pass per layer per tick (DESIGN.md §4).
  struct BatchState {
    StreamBatchState lstm;
    Matrix logits;      ///< B×C: next-signature logits per stream
    Matrix softmax_wT;  ///< H_top×C cached transpose
  };

  BatchState make_batch_state(std::size_t streams) const;

  /// One batched tick of streams [0, n): x holds n one-hot input rows as
  /// active ids, n <= the current stream count; row s < n of state.logits
  /// becomes stream s's next-package logits, and every other stream keeps
  /// its state and logits bit for bit (n == stream count is the lockstep
  /// tick). A stream's rows never depend on n or on its neighbours (§5).
  /// Matches per-stream predict() to float rounding (batched kernels vs
  /// per-sample reference); bit-identical for any `pool`.
  void predict_batch(BatchState& state, const OneHotRows& x,
                     ThreadPool* pool = nullptr) const;

  /// Keep only the first n streams of the batched state.
  void shrink_batch_state(BatchState& state, std::size_t n) const;

  /// Activate fresh (zero-state) streams at the back so the state covers n
  /// streams; existing streams' state and predictions are preserved
  /// bit-for-bit, and capacity freed by an earlier shrink is recycled.
  void grow_batch_state(BatchState& state, std::size_t n) const;

  /// Swap two streams' rows (state + prediction) — a pure relabeling used
  /// for leave-compaction in the serve engine's link lifecycle.
  void swap_batch_streams(BatchState& state, std::size_t a,
                          std::size_t b) const;

  /// Re-derive the cached weight transposes in `state` from the CURRENT
  /// parameters, leaving every stream's recurrent state and prediction rows
  /// untouched — the hot-swap hook: after copy_params_from publishes new
  /// weights, the serve engine refreshes its batch caches between ticks and
  /// all live streams carry their histories across the swap.
  void refresh_batch_state(BatchState& state) const;

  /// One stream's rows lifted out of a BatchState — the park/unpark
  /// currency of the serve engine's straggler policy.
  struct StreamSnapshot {
    StackedLstmState lstm;
    std::vector<float> logits;  ///< empty if the stream never ticked
  };

  StreamSnapshot extract_batch_stream(const BatchState& state,
                                      std::size_t s) const;
  /// Overwrite stream `s` (which must be active) with a snapshot taken by
  /// extract_batch_stream — possibly in a different BatchState or after
  /// grow/shrink cycles, as long as the model shape is unchanged.
  void restore_batch_stream(BatchState& state, std::size_t s,
                            const StreamSnapshot& snapshot) const;

  // ---- Cloning / parameter adoption ---------------------------------------

  /// Deep copy (the type is a plain value; this spells out the intent): the
  /// online-adaptation trainer clones the serving model once and trains the
  /// clone, so training never touches the weights the engine is serving.
  SequenceModel clone() const { return *this; }

  /// Copy ONLY the parameter tensors from `other` (shapes must match;
  /// throws std::invalid_argument otherwise). Allocation-free after the
  /// first call — the swap-in path the serve engine runs between ticks.
  void copy_params_from(const SequenceModel& other);

  // ---- Introspection ------------------------------------------------------

  std::size_t param_count() const;
  /// Serialized model footprint in bytes (float32 parameters + header),
  /// comparable to the paper's reported 684 KB combined model size.
  std::size_t memory_bytes() const;

  StackedLstm& lstm() { return lstm_; }
  const StackedLstm& lstm() const { return lstm_; }
  SoftmaxLayer& output_layer() { return softmax_; }
  const SoftmaxLayer& output_layer() const { return softmax_; }

 private:
  SequenceModelConfig config_;
  StackedLstm lstm_;
  SoftmaxLayer softmax_;
  std::uint64_t params_version_;
};

}  // namespace mlad::nn
