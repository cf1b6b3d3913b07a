#include "detect/timeseries_detector.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "nn/softmax.hpp"

namespace mlad::detect {
namespace {

nn::SequenceModelConfig model_config(const sig::SignatureDatabase& db,
                                     std::span<const std::size_t> cards,
                                     const TimeSeriesConfig& config) {
  nn::SequenceModelConfig mc;
  std::size_t one_hot = 0;
  for (std::size_t c : cards) one_hot += c;
  mc.input_dim = one_hot + 1;  // +1: the noisy bit c(t)_{o+1}
  mc.num_classes = db.size();
  mc.hidden_dims = config.hidden_dims;
  return mc;
}

/// Both batch sizes count windows; zero has no meaning for either.
const TimeSeriesConfig& checked(const TimeSeriesConfig& config) {
  if (config.batch_size == 0) {
    throw std::invalid_argument("TimeSeriesConfig: batch_size must be >= 1");
  }
  if (config.micro_batch == 0) {
    throw std::invalid_argument("TimeSeriesConfig: micro_batch must be >= 1");
  }
  return config;
}

}  // namespace

TimeSeriesDetector::TimeSeriesDetector(const sig::SignatureDatabase& db,
                                       std::vector<std::size_t> cardinalities,
                                       const TimeSeriesConfig& config,
                                       Rng& rng)
    : db_(&db),
      cardinalities_(std::move(cardinalities)),
      config_(checked(config)),
      model_(model_config(db, cardinalities_, config)) {
  model_.init_params(rng);
}

TimeSeriesDetector::TimeSeriesDetector(const sig::SignatureDatabase& db,
                                       std::vector<std::size_t> cardinalities,
                                       const TimeSeriesConfig& config,
                                       nn::SequenceModel model, std::size_t k)
    : db_(&db),
      cardinalities_(std::move(cardinalities)),
      config_(checked(config)),
      model_(std::move(model)),
      k_(k) {
  std::size_t one_hot = 1;  // the noisy bit
  for (std::size_t c : cardinalities_) one_hot += c;
  if (model_.input_dim() != one_hot || model_.num_classes() != db.size()) {
    throw std::invalid_argument(
        "TimeSeriesDetector: model shape does not match database/schema");
  }
}

nn::Fragment TimeSeriesDetector::encode_fragment(const DiscreteFragment& frag,
                                                 bool with_noise,
                                                 Rng* rng) const {
  nn::Fragment out;
  out.inputs.clear(model_.input_dim());
  if (frag.size() < 2) return out;
  const std::size_t steps = frag.size() - 1;
  out.inputs.ids.reserve(steps * (cardinalities_.size() + 1));
  out.inputs.offsets.reserve(steps + 1);
  out.targets.reserve(steps);
  // One row of ids per input: a feature's one-hot column each, then the
  // noisy bit c(t)_{o+1} (the last column) when set.
  const auto noisy_bit = static_cast<std::uint32_t>(model_.input_dim() - 1);
  const auto append = [&](const sig::DiscreteRow& row, bool noisy,
                          std::size_t target) {
    sig::append_one_hot_ids(row, cardinalities_, out.inputs.ids);
    if (noisy) out.inputs.ids.push_back(noisy_bit);
    out.inputs.end_row();
    out.targets.push_back(target);
  };
  sig::DiscreteRow corrupted;  // reused: no allocation per step
  for (std::size_t t = 0; t < steps; ++t) {
    // Target: the TRUE signature of the next package (never corrupted).
    const auto id = db_->id_of(frag[t + 1]);
    if (!id) {
      throw std::invalid_argument(
          "TimeSeriesDetector: training fragment contains a signature "
          "missing from the database");
    }

    bool noisy = false;
    bool insert = false;
    if (with_noise && rng != nullptr) {
      corrupted.assign(frag[t].begin(), frag[t].end());
      noisy =
          maybe_corrupt(corrupted, cardinalities_, *db_, config_.noise, *rng);
      insert = noisy && rng->bernoulli(config_.noise.insertion_fraction);
    }

    if (insert) {
      // Insertion mode: the clean package first (phase advances as usual)…
      append(frag[t], /*noisy=*/false, *id);
      // …then the noisy extra packet, after which the SAME real signature
      // is still due — exactly an injected packet's effect on the stream.
      append(corrupted, /*noisy=*/true, *id);
    } else {
      append(noisy ? corrupted : frag[t], noisy, *id);
    }
  }
  return out;
}

void TimeSeriesDetector::set_train_config(const TimeSeriesConfig& config) {
  if (config.hidden_dims != config_.hidden_dims) {
    throw std::invalid_argument(
        "set_train_config: hidden_dims cannot change on a built model");
  }
  config_ = checked(config);
}

/// One capture's streaming encoder state in the epoch loop. A fragment is
/// encoded (drawing its noise from `rng`) only when the capture's pending
/// window list runs short, and stays live only while one of its windows is
/// still pending (a deque keeps element addresses stable), so peak memory
/// is about one round of one-hot floats per capture, not a whole epoch's.
struct TimeSeriesDetector::Feed {
  Feed(std::span<const DiscreteFragment> f, Rng& r)
      : fragments(f), rng(&r), order(f.size()) {
    std::iota(order.begin(), order.end(), 0);
  }

  std::span<const DiscreteFragment> fragments;
  Rng* rng;
  std::vector<std::size_t> order;        ///< shuffled fragment indices
  std::size_t next = 0;                  ///< next order[] entry to encode
  std::deque<nn::Fragment> live;         ///< encoded, still referenced
  std::deque<std::size_t> live_windows;  ///< pending windows per fragment
  std::vector<nn::WindowRef> pending;    ///< windows not yet consumed
  std::size_t took = 0;                  ///< windows in this round's group
};

std::vector<double> TimeSeriesDetector::train(
    std::span<const DiscreteFragment> fragments, Rng& rng) {
  Feed feed(fragments, rng);
  return run_epochs(std::span(&feed, 1),
                    /*per_window=*/config_.batch_size == 1);
}

std::vector<double> TimeSeriesDetector::train_sharded(
    std::span<const CaptureShard> captures, std::uint64_t base_seed) {
  // Canonical capture order: ascending key, independent of listing order.
  std::vector<std::size_t> cap_order(captures.size());
  std::iota(cap_order.begin(), cap_order.end(), 0);
  std::sort(cap_order.begin(), cap_order.end(),
            [&](std::size_t a, std::size_t b) {
              return captures[a].key < captures[b].key;
            });
  for (std::size_t i = 0; i + 1 < cap_order.size(); ++i) {
    if (captures[cap_order[i]].key == captures[cap_order[i + 1]].key) {
      throw std::invalid_argument(
          "train_sharded: duplicate capture key '" +
          captures[cap_order[i]].key + "'");
    }
  }

  // One independent Rng stream per capture, derived from (base_seed, key)
  // via FNV-1a: a capture's shuffle and noise draws are a pure function of
  // its own key and data, never of its shard neighbours.
  std::vector<Rng> rngs;
  rngs.reserve(captures.size());
  std::vector<Feed> feeds;
  feeds.reserve(captures.size());
  for (std::size_t ci : cap_order) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int b = 0; b < 8; ++b) {
      h ^= (base_seed >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
    for (unsigned char ch : captures[ci].key) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
    feeds.emplace_back(captures[ci].fragments, rngs.emplace_back(h));
  }
  return run_epochs(feeds, /*per_window=*/false);
}

std::vector<double> TimeSeriesDetector::run_epochs(std::span<Feed> feeds,
                                                   bool per_window) {
  nn::Adam opt(config_.learning_rate);
  const auto slots = model_.param_slots();
  if (warm_start_) {
    if (!nn::adam_state_matches(*warm_start_, slots)) {
      throw std::invalid_argument(
          "TimeSeriesDetector: Adam warm-start state does not match the "
          "model (refusing mismatched sidecar)");
    }
    opt.restore(std::move(*warm_start_));
    warm_start_.reset();
  }
  std::optional<nn::MinibatchTrainer> engine;
  if (!per_window) {
    engine.emplace(model_, config_.micro_batch, config_.threads);
  }

  const std::size_t batch = config_.batch_size;
  std::vector<double> epoch_losses;
  std::vector<std::span<const nn::WindowRef>> groups;
  std::vector<std::vector<float>> dense;  // the per-window step's inputs
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (Feed& fd : feeds) {
      fd.next = 0;
      fd.rng->shuffle(fd.order);
    }
    double loss_sum = 0.0;
    std::size_t steps = 0;
    while (true) {
      // This round's groups: up to `batch` windows from every capture, in
      // feed order. Encoding (and its noise draws) runs serially in each
      // capture's shuffled order, so the Rng stream never depends on the
      // batch or thread configuration; the window partition is a function
      // of the data and `batch` alone.
      groups.clear();
      for (Feed& fd : feeds) {
        while (fd.pending.size() < batch && fd.next < fd.order.size()) {
          // Noise is re-sampled every epoch (fresh corruption draws).
          nn::Fragment frag =
              encode_fragment(fd.fragments[fd.order[fd.next++]],
                              config_.noise.enabled, fd.rng);
          if (frag.steps() == 0) continue;
          fd.live.push_back(std::move(frag));
          const nn::Fragment& f = fd.live.back();
          const std::size_t truncate = config_.truncate_steps == 0
                                           ? f.steps()
                                           : config_.truncate_steps;
          std::size_t windows = 0;
          for (std::size_t start = 0; start < f.steps(); start += truncate) {
            const std::size_t n = std::min(f.steps() - start, truncate);
            fd.pending.push_back(f.window(start, n));
            steps += n;
            ++windows;
          }
          fd.live_windows.push_back(windows);
        }
        fd.took = std::min(batch, fd.pending.size());
        if (fd.took > 0) groups.push_back(std::span(fd.pending).first(fd.took));
      }
      if (groups.empty()) break;  // epoch exhausted every capture
      if (per_window) {
        // The sequential reference step: one window, one optimizer step.
        const nn::WindowRef& w = groups.front().front();
        w.densify(dense);
        model_.zero_grads();
        loss_sum += model_.train_fragment(dense, w.targets);
        opt.step(slots, nn::clip_scale(slots, config_.grad_clip));
        model_.params_changed();
      } else {
        loss_sum += engine->step_grouped(groups, slots, config_.grad_clip, opt);
      }
      // Retire the consumed window prefix (and any fragment whose windows
      // are all done) of each capture.
      for (Feed& fd : feeds) {
        std::size_t consumed = fd.took;
        fd.pending.erase(
            fd.pending.begin(),
            fd.pending.begin() + static_cast<std::ptrdiff_t>(consumed));
        while (consumed > 0) {
          if (fd.live_windows.front() <= consumed) {
            consumed -= fd.live_windows.front();
            fd.live_windows.pop_front();
            fd.live.pop_front();
          } else {
            fd.live_windows.front() -= consumed;
            consumed = 0;
          }
        }
      }
    }
    epoch_losses.push_back(steps ? loss_sum / static_cast<double>(steps)
                                 : 0.0);
  }
  adam_state_ = opt.state();
  return epoch_losses;
}

nn::TopKErrorCurve TimeSeriesDetector::rank_targets(
    std::span<const DiscreteFragment> fragments, std::size_t max_k) const {
  // Streamed evaluation rather than encode_fragment: validation fragments
  // may legitimately contain signatures absent from the training database
  // (that's exactly the package-level validation error); such targets can
  // never be inside S(k), so they count as misses at every k.
  nn::TopKErrorCurve curve(max_k);
  std::vector<float> x;
  std::vector<float> logits;
  nn::SequenceModel::State state = model_.make_state();  // one transpose
  for (const DiscreteFragment& df : fragments) {
    if (df.size() < 2) continue;
    model_.reset_state(state);
    for (std::size_t t = 0; t + 1 < df.size(); ++t) {
      sig::one_hot_encode(df[t], cardinalities_, /*extra_bits=*/1, x);
      model_.predict(state, x, logits);
      const auto id = db_->id_of(df[t + 1]);
      curve.add(logits, id ? *id : logits.size());
    }
  }
  return curve;
}

std::vector<double> TimeSeriesDetector::top_k_error_curve(
    std::span<const DiscreteFragment> fragments, std::size_t max_k) const {
  return rank_targets(fragments, max_k).errors();
}

double TimeSeriesDetector::top_k_error(
    std::span<const DiscreteFragment> fragments, std::size_t k) const {
  return rank_targets(fragments, k).error(k);
}

std::size_t TimeSeriesDetector::choose_k(
    std::span<const DiscreteFragment> validation) {
  k_ = rank_targets(validation, config_.max_k).choose_k(config_.theta);
  return k_;
}

TimeSeriesDetector::Stream TimeSeriesDetector::make_stream() const {
  Stream s;
  s.model_state = model_.make_state();
  return s;
}

void TimeSeriesDetector::reset_stream(Stream& stream) const {
  model_.reset_state(stream.model_state);
  stream.has_prediction = false;
}

bool TimeSeriesDetector::is_anomalous(
    const Stream& stream, std::optional<std::size_t> signature_id) const {
  return is_anomalous(stream, signature_id, k_);
}

bool TimeSeriesDetector::is_anomalous(const Stream& stream,
                                      std::optional<std::size_t> signature_id,
                                      std::size_t k) const {
  if (!stream.has_prediction) return false;  // no history yet
  return is_anomalous(std::span<const float>(stream.predicted), signature_id,
                      k);
}

bool TimeSeriesDetector::is_anomalous(std::span<const float> predicted,
                                      std::optional<std::size_t> signature_id,
                                      std::size_t k) const {
  if (!signature_id) return true;  // not even in the database
  return !nn::in_top_k(predicted, *signature_id, k);
}

void TimeSeriesDetector::consume(Stream& stream, const sig::DiscreteRow& row,
                                 bool flagged_anomalous) const {
  // The one-hot buffer lives in the stream so the per-package hot path is
  // allocation-free once the stream has warmed up.
  std::vector<float>& x = stream.encode_scratch;
  sig::one_hot_encode(row, cardinalities_, /*extra_bits=*/1, x);
  if (flagged_anomalous) x.back() = 1.0f;
  model_.predict(stream.model_state, x, stream.predicted);
  stream.has_prediction = true;
}

}  // namespace mlad::detect
