// Minibatch engine for the SequenceModel over time-series fragments (the
// paper removes anomalies from the training split, which cuts the normal
// traffic into fragments; each fragment is one BPTT unit). The epoch loop
// that feeds it is TimeSeriesDetector's (detect/timeseries_detector.hpp).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequence_model.hpp"

namespace mlad::nn {

/// One training fragment: layer-0 inputs as ids (one row per step, the
/// noisy bit last) and next-signature targets, already aligned (row t
/// predicts targets[t]).
struct Fragment {
  OneHotRows inputs;
  std::vector<std::size_t> targets;

  std::size_t steps() const { return targets.size(); }
  /// Steps [first, first + count) as a training window.
  WindowRef window(std::size_t first, std::size_t count) const {
    return {&inputs, first, std::span(targets).subspan(first, count)};
  }
  WindowRef window() const { return window(0, steps()); }
};

/// Deterministic data-parallel minibatch engine (DESIGN.md §4), shared by
/// the detector's epoch loop and the online trainer.
///
/// One `process()` call handles one minibatch: the windows are cut into
/// micro-batches of a FIXED size, each micro-batch runs through the batched
/// (B × dim) kernels into its own gradient lane on whichever worker is free,
/// and the lanes are then folded by a fixed-order pairwise tree reduction
/// straight into the model's gradient buffers, whose squares are then
/// summed for the clip, the slots' chains side by side (DESIGN.md §4,
/// §11). The thread count decides scheduling only, never arithmetic order,
/// so losses and gradients are bit-identical for any `threads` value.
class MinibatchTrainer {
 public:
  /// micro_batch must be >= 1 (throws std::invalid_argument).
  MinibatchTrainer(SequenceModel& model, std::size_t micro_batch,
                   std::size_t threads);

  /// Forward + backward one minibatch of windows. Leaves the summed
  /// gradients in the model's gradient buffers (overwriting them) and
  /// returns the summed CE loss; grad_sum_squares() then holds their
  /// squared global norm. Throws NonFiniteGradientError when that norm is
  /// not finite.
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

  /// process() + global-norm clip + Adam step in one call — the unit every
  /// batched training loop is built from; the clip is the scale Adam
  /// applies as it reads each gradient. `slots` are the model's; the step
  /// renews its params_version(). Returns the summed CE loss.
  double step(std::span<const WindowRef> windows,
              std::span<const ParamSlot> slots, double grad_clip, Adam& opt);

  /// Grouped counterpart of step() (one optimizer step per grouped round).
  double step_grouped(std::span<const std::span<const WindowRef>> groups,
                      std::span<const ParamSlot> slots, double grad_clip,
                      Adam& opt);

  /// Squared global L2 norm of the gradients the last process() left in
  /// the model: per slot a serial double sum in element order (as
  /// Matrix::sum_squares), the slots added in order.
  double grad_sum_squares() const { return grad_sum_squares_; }

  /// Wall-clock seconds each gradient lane spent in the most recent
  /// process()/process_grouped() call (bench instrumentation: per-lane cost
  /// on a machine whose core count can't run the lanes concurrently).
  const std::vector<double>& lane_seconds() const { return lane_seconds_; }

 private:
  /// Fold lanes_[0, lanes) into the model's gradient buffers and set
  /// grad_sum_squares_ (see the .cpp).
  void fold_lanes(std::size_t lanes);

  SequenceModel* model_;
  std::size_t micro_batch_;
  PoolHandle pool_;
  std::vector<ModelGrads> lanes_;       ///< per micro-batch gradient buffers
  std::vector<BatchWorkspace> ws_;      ///< per micro-batch scratch
  std::vector<double> lane_loss_;
  std::vector<double> lane_seconds_;
  /// Weight transposes refreshed when the model's params_version() moves
  /// (once per optimizer step) instead of once per lane per minibatch
  /// (DESIGN.md §11); shared read-only by lanes.
  TransposeCache tcache_;
  std::vector<std::span<const WindowRef>> lane_windows_;
  double grad_sum_squares_ = 0.0;
};

}  // namespace mlad::nn
