// Batched multi-stream inference stepping (DESIGN.md §4, ROADMAP
// "kernel-level batching for inference"): advance S concurrent
// CombinedDetector streams one package-tick at a time through a single
// (S×dim) LSTM step per layer — collect each stream's one-hot input as its
// active ids, run one batched pass per layer (a row gather for layer 0,
// matmul+gates above), and keep each stream's next-signature logits.
//
// Per-stream semantics mirror CombinedDetector::classify_and_consume
// exactly; numerically the batched kernels and the per-sample reference sum
// in different orders, so verdicts agree to float rounding, not bitwise
// (DESIGN.md §5 — batching is a semantic knob). For a fixed batch shape,
// results are bit-identical for any thread count: the pool only partitions
// kernel rows.
#pragma once

#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "detect/combined.hpp"
#include "nn/matrix.hpp"

namespace mlad::obs {
class LatencyHistogram;
}  // namespace mlad::obs

namespace mlad::detect {

class StreamBatch {
 public:
  /// S independent streams over `detector` (which must outlive this). The
  /// optional pool accelerates the batched kernels without changing results.
  StreamBatch(const CombinedDetector& detector, std::size_t streams,
              ThreadPool* pool = nullptr);

  std::size_t active() const { return active_; }

  /// One tick of streams [0, rows.size()): rows[s] is the next raw package
  /// of stream s, and rows.size() <= active(). The streams past the prefix
  /// keep their LSTM state and standing prediction bit for bit, and a
  /// stream's verdicts never depend on which others share its ticks
  /// (DESIGN.md §8); rows.size() == active() is the lockstep tick.
  /// verdicts is resized to rows.size(); verdicts[s] is stream s's
  /// classification, already absorbed into its history. When `packages` is
  /// non-null it is grown to at least rows.size() entries (never shrunk,
  /// so their row buffers survive smaller ticks) and entry s receives
  /// stream s's package-level verdict (discretized row + signature id) —
  /// the online-adaptation harvest reads these without re-running the
  /// Bloom stage.
  void step(std::span<const std::span<const double>> rows,
            std::vector<CombinedVerdict>& verdicts,
            std::vector<PackageVerdict>* packages = nullptr);

  /// Keep only streams [0, n): streams end from the back, so callers order
  /// them longest-first (mirrors the batched trainer's window sorting).
  void shrink(std::size_t n);

  /// Activate n - active() fresh streams at the back (zero LSTM state, no
  /// prediction yet — exactly a just-constructed stream). Existing streams
  /// are preserved bit-for-bit, and slots freed by an earlier shrink are
  /// recycled without reallocating, so links can join/leave mid-run.
  void grow(std::size_t n);

  /// Swap streams a and b — a pure relabeling (streams are independent).
  /// Lets a caller retire stream a mid-batch: swap it to the back, then
  /// shrink, preserving the back-shrink contract for everyone else.
  void swap_streams(std::size_t a, std::size_t b);

  /// Rebuild the cached transposed weights from the detector's CURRENT
  /// model parameters, keeping every stream's LSTM state and last
  /// prediction — the weight hot-swap hook (the engine calls this between
  /// ticks after publishing new weights into the model).
  void refresh_weights();

  /// One stream's full rolling state (LSTM rows + last prediction + the
  /// has-prediction bit), detachable and re-attachable across grow/shrink
  /// cycles — the serve engine's straggler policy parks a silent link by
  /// extracting its stream and restores it on rejoin.
  struct StreamSnapshot {
    nn::SequenceModel::StreamSnapshot model;
    bool has_prediction = false;
  };

  StreamSnapshot extract_stream(std::size_t s) const;
  void restore_stream(std::size_t s, const StreamSnapshot& snapshot);

  /// Per-stage telemetry hooks (DESIGN.md §14): when set, each step()
  /// records the batched signature-lookup pass and the batched LSTM pass
  /// into the given histograms. Null pointers (the default) keep step()
  /// free of clock reads; timing never changes any verdict.
  struct StageTimers {
    obs::LatencyHistogram* lookup_ns = nullptr;
    obs::LatencyHistogram* nn_ns = nullptr;
  };
  void set_stage_timers(const StageTimers& timers) { timers_ = timers; }

 private:
  const CombinedDetector* detector_;
  ThreadPool* pool_;
  nn::SequenceModel::BatchState state_;
  nn::OneHotRows x_ids_;  ///< per-tick layer-0 inputs as active ids
  std::vector<PackageVerdict> pkg_verdicts_;          ///< per-tick results
  PackageLevelDetector::BatchScratch pkg_scratch_;    ///< batched lookups
  std::vector<char> has_prediction_;   ///< per stream, false before tick 1
  std::size_t active_ = 0;
  StageTimers timers_;
};

}  // namespace mlad::detect
