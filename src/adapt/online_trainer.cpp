#include "adapt/online_trainer.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

#include "common/stopwatch.hpp"
#include "obs/metrics.hpp"

namespace mlad::adapt {

OnlineTrainer::OnlineTrainer(detect::CombinedDetector& detector,
                             const AdaptConfig& config,
                             const nn::AdamState* warm_start)
    : detector_(&detector),
      config_(config),
      queue_(config.queue_capacity),
      swap_(config.swap_history),
      cardinalities_(detector.timeseries_level().cardinalities()),
      model_(detector.timeseries_level().model().clone()),
      optimizer_(config.learning_rate),
      shuffle_rng_(config.seed ^ 0x9e3779b97f4a7c15ull),
      replay_(config.replay_capacity, config.per_link_quota, config.seed) {
  if (config.window_len < 2) {
    throw std::invalid_argument("OnlineTrainer: window_len must be >= 2");
  }
  if (config.batch_size == 0 || config.micro_batch == 0 ||
      config.epochs_per_round == 0) {
    throw std::invalid_argument(
        "OnlineTrainer: batch_size/micro_batch/epochs_per_round must be > 0");
  }
  if (warm_start != nullptr) {
    if (!nn::adam_state_matches(*warm_start, model_.param_slots())) {
      throw std::invalid_argument(
          "OnlineTrainer: Adam warm-start state does not match the model "
          "(refusing mismatched sidecar)");
    }
    optimizer_.restore(*warm_start);
  }
  // The pre-adaptation weights are version 0: the rollback target when the
  // FIRST published round turns out bad.
  round_start_ = std::make_shared<const nn::SequenceModel>(model_);
  swap_.set_baseline(round_start_);
  if (config_.metrics != nullptr) {
    // Registered before the trainer thread starts, so both threads see the
    // bound pointers without synchronization.
    obs::MetricsRegistry& reg = *config_.metrics;
    tele_.windows_harvested = &reg.counter("adapt_windows_harvested_total");
    tele_.rounds_completed = &reg.counter("adapt_rounds_completed_total");
    tele_.rounds_skipped = &reg.counter("adapt_rounds_skipped_total");
    tele_.train_steps = &reg.counter("adapt_train_steps_total");
    tele_.train_us = &reg.counter("adapt_train_us_total");
    tele_.replay_windows = &reg.gauge("adapt_replay_windows");
  }
  thread_ = std::thread([this] { thread_main(); });
}

OnlineTrainer::~OnlineTrainer() {
  queue_.close();
  if (thread_.joinable()) thread_.join();
}

void OnlineTrainer::observe(ics::LinkId link,
                            const detect::PackageVerdict& package,
                            bool anomaly, bool decode_ok) {
  Accumulator& acc = accumulators_[link];
  if (anomaly || !decode_ok || !package.signature_id) {
    // Fragment break: adaptation trains on verdict-clean runs only, the
    // online analogue of the paper's anomaly-free training fragments.
    acc.rows.clear();
    acc.signatures.clear();
    return;
  }
  acc.rows.push_back(package.discrete);
  acc.signatures.push_back(*package.signature_id);
  if (acc.rows.size() < config_.window_len) return;

  ++harvested_;
  if (tele_.on()) tele_.windows_harvested->set(harvested_);
  Message msg;
  msg.kind = Message::Kind::kWindow;
  msg.link = link;
  msg.rows = std::move(acc.rows);
  msg.signatures = std::move(acc.signatures);
  // Keep the window's last package as the next window's first, so the
  // boundary transition is never lost from the training stream.
  acc.rows.assign(1, msg.rows.back());
  acc.signatures.assign(1, msg.signatures.back());
  queue_.push(std::move(msg));
}

void OnlineTrainer::stream_break(ics::LinkId link) {
  const auto it = accumulators_.find(link);
  if (it == accumulators_.end()) return;
  it->second.rows.clear();
  it->second.signatures.clear();
}

void OnlineTrainer::request_round() {
  ++rounds_requested_;
  Message msg;
  msg.kind = Message::Kind::kRound;
  queue_.push(std::move(msg));
}

std::uint64_t OnlineTrainer::poll_and_apply() {
  if (rounds_requested_ == 0) return 0;
  swap_.wait_rounds(rounds_requested_);
  const ModelSwap::Fetched fetched = swap_.fetch_newer(applied_version_);
  if (!fetched.model) return 0;
  detector_->timeseries_level().model().copy_params_from(*fetched.model);
  applied_version_ = fetched.version;
  return fetched.version;
}

bool OnlineTrainer::rollback_to(std::uint64_t version) {
  const ModelSwap::Fetched target = swap_.previous_to(version + 1);
  if (!target.model || target.version != version) return false;
  detector_->timeseries_level().model().copy_params_from(*target.model);
  Message msg;
  msg.kind = Message::Kind::kReset;
  msg.reset_to = target.model;
  queue_.push(std::move(msg));
  // applied_version_ keeps pointing at the newest version the engine SAW:
  // fetch_newer must not hand the rolled-back-from weights straight back.
  return true;
}

nn::Fragment OnlineTrainer::encode_window(const Message& msg) const {
  // Same encoding the engine feeds the serving LSTM for clean packages:
  // one-hot of c(t) with the trailing noisy bit left 0 (every package in a
  // harvested window was judged normal), target = the next signature id.
  nn::Fragment frag;
  frag.inputs.clear(model_.input_dim());
  frag.inputs.ids.reserve((msg.rows.size() - 1) * cardinalities_.size());
  frag.targets.reserve(msg.rows.size() - 1);
  for (std::size_t t = 0; t + 1 < msg.rows.size(); ++t) {
    sig::append_one_hot_ids(msg.rows[t], cardinalities_, frag.inputs.ids);
    frag.inputs.end_row();
    frag.targets.push_back(msg.signatures[t + 1]);
  }
  return frag;
}

void OnlineTrainer::thread_main() {
#ifdef __linux__
  if (config_.background_priority) {
    // Idle scheduling: on a saturated host (one serve core) the trainer
    // only consumes cycles the engine isn't using, so training never
    // steals timeslices mid-tick. Forward progress stays guaranteed — the
    // engine BLOCKS at each adapt boundary until the round completes,
    // which is exactly when an idle-priority thread gets the core.
    // Unprivileged (priority can always be lowered); best-effort.
    struct sched_param param {};
    (void)pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
  }
#endif
  nn::MinibatchTrainer engine(model_, config_.micro_batch, config_.threads);
  const auto slots = model_.param_slots();

  std::uint64_t published = 0;
  Message msg;
  while (queue_.pop(msg)) {
    if (msg.kind == Message::Kind::kWindow) {
      replay_.push(msg.link, encode_window(msg));
      if (tele_.on()) tele_.replay_windows->set(replay_.size());
      std::lock_guard<std::mutex> lock(stats_mutex_);
      replay_size_ = replay_.size();
      continue;
    }
    if (msg.kind == Message::Kind::kReset) {
      // Auto-rollback: restart the working clone from the restored weights
      // and drop the optimizer moments that walked it into the bad
      // publication. Windows queued before the reset are already in the
      // replay buffer — they were harvested under clean verdicts and stay.
      model_.copy_params_from(*msg.reset_to);
      optimizer_ = nn::Adam(config_.learning_rate);
      round_start_ = msg.reset_to;
      continue;
    }

    const auto skip_round = [&] {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++rounds_skipped_;
        if (tele_.on()) tele_.rounds_skipped->set(rounds_skipped_);
      }
      swap_.complete_round();
    };
    // Round marker: every window pushed before the marker is already in the
    // buffer (FIFO), so the snapshot is a pure function of the wire.
    if (replay_.size() < std::max<std::size_t>(1, config_.min_windows)) {
      skip_round();
      continue;
    }

    Stopwatch sw;
    std::vector<std::size_t> order(replay_.size());
    std::iota(order.begin(), order.end(), 0);
    std::vector<nn::WindowRef> batch;
    std::uint64_t steps_this_round = 0;
    bool budget_hit = false;
    bool abandoned = false;
    for (std::size_t epoch = 0; epoch < config_.epochs_per_round &&
                                !budget_hit && !abandoned;
         ++epoch) {
      shuffle_rng_.shuffle(order);
      for (std::size_t start = 0; start < order.size() && !budget_hit;
           start += config_.batch_size) {
        const std::size_t count =
            std::min(config_.batch_size, order.size() - start);
        batch.clear();
        for (std::size_t i = 0; i < count; ++i) {
          const nn::Fragment& frag = replay_.window(order[start + i]);
          batch.push_back(frag.window());
          steps_this_round += frag.steps();
        }
        try {
          engine.step(batch, slots, config_.grad_clip, optimizer_);
        } catch (const nn::NonFiniteGradientError&) {
          abandoned = true;
          break;
        }
        budget_hit = config_.max_steps_per_round != 0 &&
                     steps_this_round >= config_.max_steps_per_round;
      }
    }
    if (abandoned) {
      // A NaN/Inf gradient (e.g. weights blown up by a bad publication)
      // stopped the step before Adam ran. Publish nothing: restart the
      // clone from this round's starting weights with fresh moments, and
      // let the engine's rollback deal with what it is serving.
      model_.copy_params_from(*round_start_);
      optimizer_ = nn::Adam(config_.learning_rate);
      skip_round();
      continue;
    }

    // Publish an immutable copy; the working model keeps training next
    // round from exactly these weights (and the warm Adam moments).
    ++published;
    if (config_.poison_round != 0 && published == config_.poison_round) {
      // Deterministic bad-publication hook (rollback suite): blow the
      // weights up in place, so the poisoned round AND everything the clone
      // trains afterwards is wrong — exactly the failure auto-rollback
      // must contain.
      for (const nn::ParamSlot& slot : slots) {
        float* p = slot.param->data();
        for (std::size_t i = 0; i < slot.param->size(); ++i) {
          p[i] = static_cast<float>(p[i] * config_.poison_scale);
        }
      }
      model_.params_changed();
    }
    round_start_ = std::make_shared<const nn::SequenceModel>(model_);
    swap_.publish(round_start_);
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++rounds_completed_;
      train_steps_ += steps_this_round;
      train_seconds_ += sw.elapsed_seconds();
      if (tele_.on()) {
        tele_.rounds_completed->set(rounds_completed_);
        tele_.train_steps->set(train_steps_);
        tele_.train_us->set(
            static_cast<std::uint64_t>(train_seconds_ * 1e6));
      }
    }
    swap_.complete_round();
  }
}

AdaptStats OnlineTrainer::stats() const {
  AdaptStats s;
  s.windows_harvested = harvested_;
  s.published_version = swap_.version();
  s.applied_version = applied_version_;
  std::lock_guard<std::mutex> lock(stats_mutex_);
  s.rounds_completed = rounds_completed_;
  s.rounds_skipped = rounds_skipped_;
  s.train_steps = train_steps_;
  s.replay_size = replay_size_;
  s.train_seconds = train_seconds_;
  return s;
}

}  // namespace mlad::adapt
