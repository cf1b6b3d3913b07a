// Background incremental re-training for `mlad serve` (DESIGN.md §9): a
// dedicated thread that folds freshly-captured anomaly-free windows into
// the model off the tick path and hands refreshed weights back to the
// engine through a versioned ModelSwap.
//
//   engine tick loop ──observe()──► per-link window accumulators
//        │                            │ (full, verdict-clean window)
//        │ request_round() ┐          ▼
//        │                 ├────► SpscQueue (windows + markers, FIFO)
//        │                 │          ▼  trainer thread
//        │                 │      ReplayBuffer (seeded reservoir)
//        │                 │          ▼  round marker
//        │                 │      warm-start Adam + MinibatchTrainer
//        │                 │      over the working model CLONE
//        ▼                 │          ▼
//   poll_and_apply() ◄─────┴────── ModelSwap.publish(copy)
//   (copies params into the serving model between ticks; the engine then
//    refreshes the StreamBatch's transposed-weight caches)
//
// Determinism: windows and round markers travel the same FIFO queue, so
// the buffer contents at a marker — and therefore every published weight
// version — are a pure function of the wire and the replay seed. The
// engine requests rounds only at fixed tick boundaries and waits at the
// NEXT boundary for the round to finish, so swaps land on deterministic
// ticks. Training normally overlaps serving; the wait only bites when a
// round is slower than one adapt interval.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "adapt/model_swap.hpp"
#include "adapt/replay_buffer.hpp"
#include "common/spsc_queue.hpp"
#include "detect/combined.hpp"
#include "nn/trainer.hpp"

namespace mlad::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace mlad::obs

namespace mlad::adapt {

struct AdaptConfig {
  /// Packages per harvested window (a window of L clean packages becomes an
  /// (L-1)-step BPTT fragment). Must be >= 2.
  std::size_t window_len = 48;
  std::size_t replay_capacity = 256;  ///< windows held across all links
  std::size_t per_link_quota = 0;  ///< 0 = replay_capacity (ReplayBuffer)
  std::uint64_t seed = 1;             ///< reservoir + minibatch-shuffle seed
  std::size_t min_windows = 8;        ///< skip a round below this many windows
  std::size_t epochs_per_round = 1;
  /// BPTT timesteps budget per round (0 = whole snapshot every epoch);
  /// bounds the trainer's CPU bite out of a 1-core host.
  std::size_t max_steps_per_round = 0;
  std::size_t batch_size = 8;   ///< windows per optimizer step
  std::size_t micro_batch = 4;  ///< windows per batched kernel pass
  std::size_t threads = 1;      ///< trainer pool (never changes results, §5)
  double learning_rate = 1e-3;
  double grad_clip = 5.0;
  std::size_t queue_capacity = 256;  ///< harvest queue bound (backpressure)
  /// Run the trainer thread at idle scheduling priority (Linux): training
  /// consumes only cycles the serve engine isn't using, so on a saturated
  /// one-core host the tick path barely notices it. The boundary wait in
  /// poll_and_apply guarantees rounds still finish.
  bool background_priority = true;
  /// How many published versions stay restorable for auto-rollback
  /// (DESIGN.md §12); the v0 baseline is always kept in addition.
  std::size_t swap_history = 4;
  /// Fault-injection hook for the rollback suite: deterministically scale
  /// the weights of the Nth PUBLISHED round (1-based; 0 = off) by
  /// poison_scale before publication, so an adaptation gone wrong can be
  /// reproduced bit-exactly. Never set outside tests/benches.
  std::uint64_t poison_round = 0;
  double poison_scale = 8.0;
  /// Telemetry registry (DESIGN.md §14): the trainer registers adapt_*
  /// counters at construction — harvest counts on the engine thread,
  /// round/step totals on the trainer thread (separate instances, so the
  /// hot paths never share a cache line). Null = off.
  obs::MetricsRegistry* metrics = nullptr;
};

struct AdaptStats {
  std::uint64_t windows_harvested = 0;  ///< full clean windows observed
  std::uint64_t rounds_completed = 0;   ///< trained rounds
  /// Markers below min_windows, and rounds abandoned on a non-finite
  /// gradient (nothing published; the clone restarts from its round-start
  /// weights with fresh Adam moments).
  std::uint64_t rounds_skipped = 0;
  std::uint64_t published_version = 0;  ///< latest published weight version
  std::uint64_t applied_version = 0;    ///< latest version swapped in
  std::uint64_t train_steps = 0;        ///< BPTT timesteps trained
  std::size_t replay_size = 0;          ///< windows in the buffer
  double train_seconds = 0.0;
};

/// One OnlineTrainer pairs with one MonitorEngine over the SAME detector
/// object: observe/stream_break/request_round/poll_and_apply are called
/// from the engine thread only; everything behind the queue runs on the
/// trainer thread. The serving model is mutated exclusively by
/// poll_and_apply (i.e. between engine ticks).
class OnlineTrainer {
 public:
  /// Clones `detector`'s LSTM as the training copy. `warm_start` (e.g. the
  /// sidecar written by `mlad train --adam-state`) seeds the Adam moments;
  /// a state that does not match the model is refused with
  /// std::invalid_argument. `detector` must outlive the trainer.
  OnlineTrainer(detect::CombinedDetector& detector, const AdaptConfig& config,
                const nn::AdamState* warm_start = nullptr);
  ~OnlineTrainer();

  OnlineTrainer(const OnlineTrainer&) = delete;
  OnlineTrainer& operator=(const OnlineTrainer&) = delete;

  // ---- engine-thread hooks ------------------------------------------------

  /// Feed one classified package. Verdict-clean packages extend the link's
  /// window accumulator; an anomaly, decode failure, or unknown signature
  /// breaks it (fragments must be anomaly-free, like offline training).
  void observe(ics::LinkId link, const detect::PackageVerdict& package,
               bool anomaly, bool decode_ok);

  /// The link's stream restarted (fresh join after a leave): drop its
  /// partial window. Parked-and-resumed links do NOT break — their LSTM
  /// state and package sequence continue seamlessly.
  void stream_break(ics::LinkId link);

  /// Snapshot-and-train request: everything observed so far trains round
  /// N; the result is collectable at the next boundary.
  void request_round();

  /// If a round is outstanding, wait for it and adopt its weights into the
  /// serving model. Returns the new version, or 0 if nothing new. The
  /// caller must refresh its batch caches after a non-zero return.
  std::uint64_t poll_and_apply();

  /// Auto-rollback (DESIGN.md §12): restore the serving model to `version`
  /// (bitwise, from the swap ring / v0 baseline) and queue a reset so the
  /// trainer's working clone and optimizer moments restart from those
  /// weights too. The reset rides the FIFO queue, so which windows a
  /// post-rollback round trains on is still a pure function of the wire. A
  /// round already in flight may still publish weights derived from the
  /// bad version — the engine's rollback monitor simply fires again.
  /// Returns false (and changes nothing) if `version` was evicted from the
  /// ring. Engine thread, between ticks, like poll_and_apply.
  bool rollback_to(std::uint64_t version);

  const detect::CombinedDetector& detector() const { return *detector_; }
  AdaptStats stats() const;

 private:
  struct Message {
    enum class Kind { kWindow, kRound, kReset } kind = Kind::kWindow;
    ics::LinkId link = 0;
    std::vector<sig::DiscreteRow> rows;   ///< window_len clean packages
    std::vector<std::size_t> signatures;  ///< their database ids
    /// kReset: weights the working clone must restart from.
    std::shared_ptr<const nn::SequenceModel> reset_to;
  };
  struct Accumulator {
    std::vector<sig::DiscreteRow> rows;
    std::vector<std::size_t> signatures;
  };

  void thread_main();
  nn::Fragment encode_window(const Message& msg) const;

  detect::CombinedDetector* detector_;
  const AdaptConfig config_;

  // Engine-thread-only state.
  std::map<ics::LinkId, Accumulator> accumulators_;
  std::uint64_t harvested_ = 0;
  std::uint64_t rounds_requested_ = 0;
  std::uint64_t applied_version_ = 0;

  // Cross-thread channel + publication point.
  SpscQueue<Message> queue_;
  ModelSwap swap_;

  // Trainer-thread-only state (constructed before the thread starts).
  std::vector<std::size_t> cardinalities_;
  nn::SequenceModel model_;  ///< the working clone
  /// The weights model_ started the current round from (the baseline, the
  /// last publication or a rollback target): an abandoned round restores
  /// them.
  std::shared_ptr<const nn::SequenceModel> round_start_;
  nn::Adam optimizer_;
  Rng shuffle_rng_;
  ReplayBuffer replay_;

  // Trainer-written, engine-read counters (guarded by stats_mutex_).
  mutable std::mutex stats_mutex_;
  std::uint64_t rounds_completed_ = 0;
  std::uint64_t rounds_skipped_ = 0;
  std::uint64_t train_steps_ = 0;
  std::size_t replay_size_ = 0;
  double train_seconds_ = 0.0;

  /// Registry instruments (null when config.metrics is null). The engine
  /// thread writes windows_harvested; the trainer thread writes the rest.
  struct Telemetry {
    obs::Counter* windows_harvested = nullptr;
    obs::Counter* rounds_completed = nullptr;
    obs::Counter* rounds_skipped = nullptr;
    obs::Counter* train_steps = nullptr;
    obs::Counter* train_us = nullptr;
    obs::Gauge* replay_windows = nullptr;
    bool on() const { return windows_harvested != nullptr; }
  } tele_;

  std::thread thread_;  ///< last member: starts after everything above
};

}  // namespace mlad::adapt
