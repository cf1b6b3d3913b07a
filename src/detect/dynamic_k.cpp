#include "detect/dynamic_k.hpp"

#include <algorithm>
#include <stdexcept>

namespace mlad::detect {

namespace {

/// Throws on a bad config; runs before any member initializer clamps with
/// the k range (std::clamp requires lo <= hi).
const DynamicKConfig& validated(const DynamicKConfig& config) {
  if (config.k_min == 0 || config.k_min > config.k_max) {
    throw std::invalid_argument("DynamicKMonitor: bad k range");
  }
  if (config.ewma_alpha <= 0.0 || config.ewma_alpha > 1.0) {
    throw std::invalid_argument("DynamicKMonitor: bad ewma_alpha");
  }
  return config;
}

}  // namespace

DynamicKMonitor::DynamicKMonitor(const CombinedDetector& detector,
                                 const DynamicKConfig& config)
    : detector_(&detector),
      config_(validated(config)),
      stream_(detector.make_stream()),
      k_(std::clamp(detector.chosen_k(), config_.k_min, config_.k_max)),
      ewma_(config_.target_rate) {}

CombinedVerdict DynamicKMonitor::classify_and_consume(
    std::span<const double> raw) {
  const CombinedVerdict verdict =
      detector_->classify_and_consume(stream_, raw, k_);

  // Adapt on the time-series stage only; Bloom alarms are content-level
  // evidence and say nothing about the top-k margin.
  if (!verdict.package_level) {
    ewma_ = (1.0 - config_.ewma_alpha) * ewma_ +
            config_.ewma_alpha * (verdict.timeseries_level ? 1.0 : 0.0);
    ++since_adjust_;
    if (since_adjust_ >= config_.cooldown) {
      if (ewma_ > config_.target_rate * config_.band_factor &&
          k_ < config_.k_max) {
        ++k_;
        ++adjustments_;
        since_adjust_ = 0;
        // Re-center so one spike does not cause a ramp straight to k_max.
        ewma_ = config_.target_rate;
      } else if (ewma_ < config_.target_rate / config_.band_factor &&
                 k_ > config_.k_min) {
        --k_;
        ++adjustments_;
        since_adjust_ = 0;
        ewma_ = config_.target_rate;
      }
    }
  }
  return verdict;
}

}  // namespace mlad::detect
