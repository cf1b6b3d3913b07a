// Time-series level anomaly detector (§V): a stacked LSTM softmax classifier
// predicts the signature of the next package from the discretized history;
// a package whose true signature falls outside the predicted top-k set is
// anomalous:
//
//   F_t(x(t) | c(t-1), c(t-2), …) = 1  iff  s(x(t)) ∉ S(k)
//
// Training runs on anomaly-free fragments with optional probabilistic-noise
// augmentation (§V-A-3); k is chosen as the minimal value whose validation
// top-k error stays below the acceptable false-positive threshold θ (§V-B).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "detect/noise.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequence_model.hpp"
#include "nn/softmax.hpp"
#include "nn/trainer.hpp"
#include "signature/discretizer.hpp"
#include "signature/signature_db.hpp"

namespace mlad::detect {

/// One anomaly-free fragment in discretized form.
using DiscreteFragment = std::vector<sig::DiscreteRow>;

/// One capture's fragments for multi-capture sharded training. `key` is the
/// capture's stable identity (e.g. its file path): shards are processed in
/// ascending key order and seed per-capture Rng streams, so training results
/// are independent of the order the caller discovered the captures in.
struct CaptureShard {
  std::string key;
  std::span<const DiscreteFragment> fragments;
};

struct TimeSeriesConfig {
  /// Stacked layer widths. Paper: {256, 256}; benches default smaller so the
  /// full harness stays CPU-friendly (MLAD_SCALE=paper restores 256).
  std::vector<std::size_t> hidden_dims = {64, 64};
  std::size_t epochs = 12;             ///< paper: 50
  double learning_rate = 3e-3;
  double grad_clip = 5.0;
  std::size_t truncate_steps = 64;     ///< BPTT window
  /// BPTT windows per optimizer step (>= 1; 0 throws). train() at 1 takes
  /// the sequential per-window reference step; otherwise the batched
  /// data-parallel engine (nn::MinibatchTrainer) runs, whose results depend
  /// on batch_size and micro_batch but are bit-identical for any `threads`
  /// (DESIGN.md §5).
  std::size_t batch_size = 1;
  std::size_t micro_batch = 4;  ///< windows per batched kernel pass (>= 1)
  std::size_t threads = 1;             ///< 0 = hardware concurrency
  NoiseConfig noise;                   ///< §V-A-3 augmentation
  double theta = 0.05;                 ///< acceptable FPR for choosing k
  std::size_t max_k = 10;              ///< search bound for k
};

class TimeSeriesDetector {
 public:
  /// `db` must outlive the detector (owned by the enclosing framework).
  TimeSeriesDetector(const sig::SignatureDatabase& db,
                     std::vector<std::size_t> cardinalities,
                     const TimeSeriesConfig& config, Rng& rng);

  /// Reassemble around an already-trained model (deserialization path).
  TimeSeriesDetector(const sig::SignatureDatabase& db,
                     std::vector<std::size_t> cardinalities,
                     const TimeSeriesConfig& config, nn::SequenceModel model,
                     std::size_t k);

  TimeSeriesDetector(const TimeSeriesDetector&) = delete;
  TimeSeriesDetector& operator=(const TimeSeriesDetector&) = delete;
  TimeSeriesDetector(TimeSeriesDetector&&) = default;

  /// Train on anomaly-free fragments; returns mean per-step loss by epoch.
  /// The one-capture case of train_sharded's epoch loop, with `rng` driving
  /// the shuffle and noise draws; at batch_size 1 each round is the
  /// sequential per-window reference step (BPTT, clip, Adam per window).
  /// Uses a fresh Adam unless a warm start was installed (below); the final
  /// optimizer moments are captured and readable via adam_state().
  std::vector<double> train(std::span<const DiscreteFragment> fragments,
                            Rng& rng);

  /// Multi-capture sharded training (DESIGN.md §11): every round draws up
  /// to batch_size BPTT windows from EACH capture and runs them as that
  /// capture's own gradient lanes through the grouped minibatch engine
  /// (nn::MinibatchTrainer::step_grouped) — one optimizer step per round.
  /// Each capture consumes an independent Rng stream derived from
  /// (base_seed, key), so its shuffle and noise draws never depend on which
  /// other captures train alongside it; combined with the canonical key
  /// order, losses and final weights are bit-identical for any thread count
  /// AND any capture listing order. Throws on duplicate keys. Returns the
  /// mean per-step loss by epoch (all captures pooled), like train().
  std::vector<double> train_sharded(std::span<const CaptureShard> captures,
                                    std::uint64_t base_seed);

  /// Install Adam moments for the NEXT train() call (offline resume from a
  /// persisted sidecar, nn/serialize.hpp). train() refuses a state whose
  /// shape does not match the model (throws std::invalid_argument).
  void set_warm_start(nn::AdamState state) { warm_start_ = std::move(state); }

  /// The optimizer state captured by the last train() (nullopt before any
  /// training) — what `mlad train` persists as the model's sidecar.
  const std::optional<nn::AdamState>& adam_state() const {
    return adam_state_;
  }

  /// Replace the training hyper-parameters (epochs, batch, noise, …) for
  /// subsequent train() calls — the offline-resume path, where the detector
  /// was deserialized with defaults. hidden_dims must match the model.
  void set_train_config(const TimeSeriesConfig& config);

  /// Every next-package target of `fragments` ranked once, capped at
  /// max_k: the per-k miss counts behind the curve below.
  nn::TopKErrorCurve rank_targets(std::span<const DiscreteFragment> fragments,
                                  std::size_t max_k) const;

  /// Paper §V-B top-k error on (anomaly-free) fragments for every
  /// k = 1..max_k (index k-1), from one pass that ranks each target once.
  std::vector<double> top_k_error_curve(
      std::span<const DiscreteFragment> fragments, std::size_t max_k) const;

  /// err_k alone, from the same single pass.
  double top_k_error(std::span<const DiscreteFragment> fragments,
                     std::size_t k) const;

  /// Choose and store the minimal k with err_k < θ on validation data.
  std::size_t choose_k(std::span<const DiscreteFragment> validation);

  std::size_t k() const { return k_; }
  void set_k(std::size_t k) { k_ = k; }

  // ---- Streaming detection --------------------------------------------

  /// Rolling detection state over one package stream.
  struct Stream {
    nn::SequenceModel::State model_state;
    std::vector<float> predicted;  ///< logits over s for the NEXT package
    bool has_prediction = false;   ///< false until the first package is seen
    std::vector<float> encode_scratch;  ///< reused one-hot buffer (consume)
  };

  /// A fresh stream over the CURRENT weights: it keeps their transposes
  /// for its single-stream products, so make streams after training.
  Stream make_stream() const;

  /// Rewind a stream to the fresh-state semantics of make_stream() without
  /// giving up its buffers — the sharded evaluator reuses one stream (and
  /// its scratch) across consecutive shards.
  void reset_stream(Stream& stream) const;

  /// Is the package's signature inside the predicted top-k set? Packages
  /// arriving before any history (has_prediction == false) pass, as do
  /// none-in-database signatures handled upstream by the Bloom stage.
  bool is_anomalous(const Stream& stream,
                    std::optional<std::size_t> signature_id) const;

  /// Same test under an explicit k (dynamic-k extension, §VIII-D).
  bool is_anomalous(const Stream& stream,
                    std::optional<std::size_t> signature_id,
                    std::size_t k) const;

  /// The core F_t decision on an explicit row of next-signature logits —
  /// the single source of truth shared by the streaming path above and the
  /// batched multi-stream stepper (detect/stream_batch.cpp), which keeps
  /// its predictions as matrix rows rather than Streams. Softmax is
  /// monotone, so ranking logits decides S(k) membership (DESIGN.md §5).
  bool is_anomalous(std::span<const float> predicted,
                    std::optional<std::size_t> signature_id,
                    std::size_t k) const;

  /// Feed the package into the history (one-hot of c(t) plus the noisy bit
  /// = `flagged_anomalous`, §V-A-3 detection-phase rule) and refresh the
  /// prediction for the next package.
  void consume(Stream& stream, const sig::DiscreteRow& row,
               bool flagged_anomalous) const;

  const nn::SequenceModel& model() const { return model_; }
  nn::SequenceModel& model() { return model_; }
  /// Per-feature cardinalities of the discretized schema (the one-hot
  /// layout); the batched multi-stream stepper encodes against these.
  const std::vector<std::size_t>& cardinalities() const {
    return cardinalities_;
  }
  std::size_t memory_bytes() const { return model_.memory_bytes(); }
  const TimeSeriesConfig& config() const { return config_; }

 private:
  /// One capture's fragments, Rng and streaming window state (the .cpp).
  struct Feed;

  /// The one epoch loop behind train() and train_sharded(): per epoch,
  /// shuffle every feed, then per round top each feed up to batch_size
  /// windows and take one optimizer step over the round's groups (feed
  /// order). `per_window` (one feed, batch_size 1) takes the sequential
  /// reference step instead of the grouped engine.
  std::vector<double> run_epochs(std::span<Feed> feeds, bool per_window);

  /// Encode a fragment into training inputs/targets, optionally noisy.
  nn::Fragment encode_fragment(const DiscreteFragment& frag, bool with_noise,
                               Rng* rng) const;

  const sig::SignatureDatabase* db_;
  std::vector<std::size_t> cardinalities_;
  TimeSeriesConfig config_;
  nn::SequenceModel model_;
  std::size_t k_ = 1;
  std::optional<nn::AdamState> warm_start_;  ///< consumed by the next train()
  std::optional<nn::AdamState> adam_state_;  ///< captured by the last train()
};

}  // namespace mlad::detect
