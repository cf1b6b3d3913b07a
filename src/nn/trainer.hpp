// Epoch-driven trainer for the SequenceModel over a set of time-series
// fragments (the paper removes anomalies from the training split, which cuts
// the normal traffic into fragments; each fragment is one BPTT unit).
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequence_model.hpp"

namespace mlad::nn {

/// One training fragment: encoded inputs and next-signature targets,
/// already aligned (inputs[t] predicts targets[t]).
struct Fragment {
  std::vector<std::vector<float>> inputs;
  std::vector<std::size_t> targets;

  std::size_t steps() const { return inputs.size(); }
};

struct TrainerConfig {
  std::size_t epochs = 50;        ///< paper: 50 epochs
  double grad_clip = 5.0;         ///< global-norm clip for BPTT stability
  std::size_t truncate_steps = 64;  ///< split long fragments for BPTT
  bool shuffle_fragments = true;
  /// BPTT windows per optimizer step. 1 reproduces the seed's per-window
  /// SGD exactly (the sequential reference path); >1 switches to the
  /// batched, data-parallel minibatch engine (DESIGN.md §4).
  std::size_t batch_size = 1;
  /// Windows per batched kernel pass inside a minibatch. The partition of a
  /// minibatch into micro-batches is a function of batch_size and this value
  /// only — never of `threads` — which is what keeps results bit-identical
  /// across thread counts (DESIGN.md §5).
  std::size_t micro_batch = 4;
  /// Worker pool for the minibatch engine: 0 = hardware concurrency,
  /// 1 = run the batched path sequentially, N = a pool of N.
  std::size_t threads = 1;
  /// Called after each epoch with (epoch, mean train loss per step).
  std::function<void(std::size_t, double)> on_epoch;
};

struct TrainReport {
  std::vector<double> epoch_losses;  ///< mean per-step CE loss per epoch
  std::size_t total_steps = 0;
  double seconds = 0.0;
};

/// Deterministic data-parallel minibatch engine (DESIGN.md §4), shared by
/// nn::train and the detector's trainer.
///
/// One `process()` call handles one minibatch: the windows are cut into
/// micro-batches of a FIXED size, each micro-batch runs through the batched
/// (B × dim) kernels into its own gradient lane on whichever worker is free,
/// and the lanes are then merged by a fixed-order pairwise tree reduction
/// into the model's gradient buffers. The thread count decides scheduling
/// only, never arithmetic order, so losses and gradients are bit-identical
/// for any `threads` value.
class MinibatchTrainer {
 public:
  MinibatchTrainer(SequenceModel& model, std::size_t micro_batch,
                   std::size_t threads);

  /// Forward + backward one minibatch of windows. Leaves the summed
  /// gradients in the model's gradient buffers (zeroing them first) and
  /// returns the summed CE loss; the caller clips and applies the optimizer.
  double process(std::span<const WindowRef> windows);

  /// Grouped minibatch (multi-capture sharded training, DESIGN.md §11):
  /// every group — e.g. one capture's windows for this step — is cut into
  /// micro-batches separately, so no gradient lane ever straddles a group
  /// boundary; the lane list is the concatenation of per-group lanes in
  /// group order and merges through the same fixed-order tree reduction.
  /// Bit-identical for any thread count; callers wanting independence from
  /// capture arrival order must present groups in a canonical order.
  /// process(w) ≡ process_grouped({w}) bit-for-bit.
  double process_grouped(std::span<const std::span<const WindowRef>> groups);

  /// process() + global-norm clip + optimizer step in one call — the unit
  /// every batched training loop is built from. Returns the summed CE loss.
  double step(std::span<const WindowRef> windows,
              std::span<const ParamSlot> slots, double grad_clip,
              Optimizer& opt);

  /// Grouped counterpart of step() (one optimizer step per grouped round).
  double step_grouped(std::span<const std::span<const WindowRef>> groups,
                      std::span<const ParamSlot> slots, double grad_clip,
                      Optimizer& opt);

  /// Mark the internal transposed-weight cache stale. step()/step_grouped()
  /// do this automatically after the optimizer runs; call it yourself only
  /// if you mutate the model's parameters between plain process() calls.
  void invalidate_transpose_cache() { tcache_.valid = false; }

  /// Wall-clock seconds each gradient lane spent in the most recent
  /// process()/process_grouped() call (bench instrumentation: per-lane cost
  /// on a machine whose core count can't run the lanes concurrently).
  const std::vector<double>& lane_seconds() const { return lane_seconds_; }

 private:
  SequenceModel* model_;
  std::size_t micro_batch_;
  PoolHandle pool_;
  std::vector<ModelGrads> lanes_;       ///< per micro-batch gradient buffers
  std::vector<BatchWorkspace> ws_;      ///< per micro-batch scratch
  std::vector<double> lane_loss_;
  std::vector<double> lane_seconds_;
  /// Weight transposes refreshed lazily once per optimizer step instead of
  /// once per lane per minibatch (DESIGN.md §11); shared read-only by lanes.
  TransposeCache tcache_;
  std::vector<std::span<const WindowRef>> lane_windows_;
};

/// Train `model` on `fragments` with `opt`. Deterministic given `rng`:
/// with config.batch_size == 1 this is the seed's sequential per-window
/// loop; with batch_size > 1 the batched engine runs, and the epoch losses
/// are bit-identical for any config.threads (DESIGN.md §5).
TrainReport train(SequenceModel& model, std::span<const Fragment> fragments,
                  Optimizer& opt, const TrainerConfig& config, Rng& rng);

/// Mean per-step cross-entropy over fragments (no gradient).
double mean_loss(const SequenceModel& model,
                 std::span<const Fragment> fragments);

/// Paper §V-B: err_k = (Σ_t 1(s(x(t)) ∉ S(k))) / T over all fragments.
double top_k_error(const SequenceModel& model,
                   std::span<const Fragment> fragments, std::size_t k);

/// Paper §V-B: minimal k with err_k < θ on the validation fragments;
/// returns `max_k` if none qualifies. One pass ranks every target
/// (nn::TopKErrorCurve) instead of one pass per k.
std::size_t choose_k(const SequenceModel& model,
                     std::span<const Fragment> fragments, double theta,
                     std::size_t max_k);

}  // namespace mlad::nn
