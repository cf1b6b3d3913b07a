#include "detect/stream_batch.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "signature/discretizer.hpp"

namespace mlad::detect {

StreamBatch::StreamBatch(const CombinedDetector& detector, std::size_t streams,
                         ThreadPool* pool)
    : detector_(&detector),
      pool_(pool),
      state_(detector.timeseries_level().model().make_batch_state(streams)),
      has_prediction_(streams, 0),
      active_(streams) {}

void StreamBatch::step(std::span<const std::span<const double>> rows,
                       std::vector<CombinedVerdict>& verdicts,
                       std::vector<PackageVerdict>* packages) {
  const std::size_t n = rows.size();
  if (n > active_) {
    throw std::invalid_argument("StreamBatch::step: rows > active streams");
  }
  verdicts.assign(n, {});
  if (packages != nullptr && packages->size() < n) packages->resize(n);
  if (n == 0) return;

  const TimeSeriesDetector& ts = detector_->timeseries_level();
  const PackageLevelDetector& pkg = detector_->package_level();
  const nn::SequenceModel& model = ts.model();
  const std::size_t k = ts.k();
  const std::size_t C = model.num_classes();

  // Package level + verdict per stream (Fig. 3 flow, as in
  // classify_and_consume), then each stream's one-hot input row as its
  // active ids: one per discretized feature, plus the noisy bit (the last
  // column) when the verdict is an anomaly — ascending, as the layer-0
  // gather requires.
  x_ids_.clear(model.input_dim());
  // The signature checks for the whole tick run as ONE batched membership +
  // id-lookup pass (classify_batch: kernel-dispatched Eytzinger walk when a
  // .sigdb view is attached, batched map/Bloom probes otherwise) — verdicts
  // are element-for-element identical to per-stream pkg.classify calls.
  if (timers_.lookup_ns != nullptr) {
    const std::uint64_t t0 = obs::now_ns();
    pkg.classify_batch(rows, pkg_verdicts_, pkg_scratch_);
    timers_.lookup_ns->record(obs::now_ns() - t0);
  } else {
    pkg.classify_batch(rows, pkg_verdicts_, pkg_scratch_);
  }
  for (std::size_t s = 0; s < n; ++s) {
    PackageVerdict& pv = pkg_verdicts_[s];
    CombinedVerdict& v = verdicts[s];
    if (pv.anomaly) {
      v.package_level = true;
      v.anomaly = true;
    } else if (has_prediction_[s] != 0) {
      const std::span<const float> predicted{
          state_.logits.data() + s * C, C};
      v.timeseries_level = ts.is_anomalous(predicted, pv.signature_id, k);
      v.anomaly = v.timeseries_level;
    }
    sig::append_one_hot_ids(pv.discrete, ts.cardinalities(), x_ids_.ids);
    if (v.anomaly) {
      x_ids_.ids.push_back(static_cast<std::uint32_t>(x_ids_.cols - 1));
    }
    x_ids_.end_row();
    // Swap rather than move, so both vectors keep a discrete-row buffer
    // and the next tick's classify_batch allocates nothing.
    if (packages != nullptr) std::swap((*packages)[s], pv);
  }

  // One batched LSTM step per layer + the output layer's logits; row s of
  // state_.logits ranks stream s's NEXT package.
  if (timers_.nn_ns != nullptr) {
    const std::uint64_t t0 = obs::now_ns();
    model.predict_batch(state_, x_ids_, pool_);
    timers_.nn_ns->record(obs::now_ns() - t0);
  } else {
    model.predict_batch(state_, x_ids_, pool_);
  }
  std::fill(has_prediction_.begin(), has_prediction_.begin() + n, 1);
}

void StreamBatch::shrink(std::size_t n) {
  if (n > active_) {
    throw std::invalid_argument("StreamBatch::shrink: n exceeds active");
  }
  if (n == active_) return;
  detector_->timeseries_level().model().shrink_batch_state(state_, n);
  active_ = n;
}

void StreamBatch::grow(std::size_t n) {
  if (n < active_) {
    throw std::invalid_argument("StreamBatch::grow: n below active");
  }
  if (n == active_) return;
  detector_->timeseries_level().model().grow_batch_state(state_, n);
  // has_prediction_ is deliberately NOT trimmed by shrink, so clear the
  // reused slots here: a recycled slot must start as a fresh stream.
  if (has_prediction_.size() < n) has_prediction_.resize(n, 0);
  std::fill(has_prediction_.begin() + active_, has_prediction_.begin() + n, 0);
  active_ = n;
}

void StreamBatch::swap_streams(std::size_t a, std::size_t b) {
  if (a >= active_ || b >= active_) {
    throw std::invalid_argument("StreamBatch::swap_streams: out of range");
  }
  if (a == b) return;
  detector_->timeseries_level().model().swap_batch_streams(state_, a, b);
  std::swap(has_prediction_[a], has_prediction_[b]);
}

void StreamBatch::refresh_weights() {
  detector_->timeseries_level().model().refresh_batch_state(state_);
}

StreamBatch::StreamSnapshot StreamBatch::extract_stream(std::size_t s) const {
  if (s >= active_) {
    throw std::invalid_argument("StreamBatch::extract_stream: out of range");
  }
  StreamSnapshot snap;
  snap.has_prediction = has_prediction_[s] != 0;
  snap.model =
      detector_->timeseries_level().model().extract_batch_stream(state_, s);
  if (!snap.has_prediction) snap.model.logits.clear();
  return snap;
}

void StreamBatch::restore_stream(std::size_t s,
                                 const StreamSnapshot& snapshot) {
  if (s >= active_) {
    throw std::invalid_argument("StreamBatch::restore_stream: out of range");
  }
  detector_->timeseries_level().model().restore_batch_stream(state_, s,
                                                             snapshot.model);
  has_prediction_[s] = snapshot.has_prediction ? 1 : 0;
}

}  // namespace mlad::detect
