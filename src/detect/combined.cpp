#include "detect/combined.hpp"

#include <algorithm>
#include <array>
#include <numeric>

namespace mlad::detect {

CombinedDetector::CombinedDetector(
    std::span<const std::vector<sig::RawRow>> train_fragments,
    std::span<const std::vector<sig::RawRow>> validation_fragments,
    std::span<const sig::FeatureSpec> specs, const CombinedConfig& config,
    Rng& rng, std::span<const std::vector<sig::RawRow>> signature_only_train,
    std::span<const std::vector<sig::RawRow>> signature_only_validation)
    : CombinedDetector(std::array{CaptureFragments{
                           "", train_fragments, validation_fragments,
                           signature_only_train, signature_only_validation}},
                       specs, config, rng, std::nullopt) {}

CombinedDetector::CombinedDetector(std::span<const CaptureFragments> captures,
                                   std::span<const sig::FeatureSpec> specs,
                                   const CombinedConfig& config, Rng& rng,
                                   std::uint64_t shard_seed)
    : CombinedDetector(captures, specs, config, rng,
                       std::optional<std::uint64_t>(shard_seed)) {}

CombinedDetector::CombinedDetector(std::span<const CaptureFragments> captures,
                                   std::span<const sig::FeatureSpec> specs,
                                   const CombinedConfig& config, Rng& rng,
                                   std::optional<std::uint64_t> shard_seed) {
  // Canonical key order for every pooled structure: the database, Bloom
  // filter, discretizer, and validation sets see the same row sequence no
  // matter how the caller ordered the captures.
  std::vector<std::size_t> order(captures.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return captures[a].key < captures[b].key;
  });
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (captures[order[i]].key == captures[order[i + 1]].key) {
      throw std::invalid_argument("CombinedDetector: duplicate capture key '" +
                                  captures[order[i]].key + "'");
    }
  }

  // Rows of two fragment sets of every capture, pooled in canonical order.
  using Set = std::span<const std::vector<sig::RawRow>> CaptureFragments::*;
  const auto pooled = [&](Set fragments, Set signature_only) {
    std::vector<sig::RawRow> rows;
    for (const Set set : {fragments, signature_only}) {
      for (std::size_t ci : order) {
        for (const auto& f : captures[ci].*set) {
          rows.insert(rows.end(), f.begin(), f.end());
        }
      }
    }
    return rows;
  };
  package_ = std::make_unique<PackageLevelDetector>(
      pooled(&CaptureFragments::train_fragments,
             &CaptureFragments::signature_only_train),
      specs, rng, config.package);
  package_validation_error_ = package_->validation_error(
      pooled(&CaptureFragments::validation_fragments,
             &CaptureFragments::signature_only_validation));

  auto discretize = [&](std::span<const std::vector<sig::RawRow>> frags) {
    std::vector<DiscreteFragment> out;
    out.reserve(frags.size());
    for (const auto& f : frags) {
      out.push_back(package_->discretizer().transform_all(f));
    }
    return out;
  };

  // Per-capture discretized training fragments back the shards; pooled
  // validation fragments (canonical order) drive the choice of k.
  std::vector<std::vector<DiscreteFragment>> train_disc(captures.size());
  std::vector<CaptureShard> shards;
  shards.reserve(captures.size());
  std::vector<DiscreteFragment> val_disc;
  for (std::size_t ci : order) {
    train_disc[ci] = discretize(captures[ci].train_fragments);
    shards.push_back({captures[ci].key, train_disc[ci]});
    std::vector<DiscreteFragment> v =
        discretize(captures[ci].validation_fragments);
    val_disc.insert(val_disc.end(), std::make_move_iterator(v.begin()),
                    std::make_move_iterator(v.end()));
  }

  timeseries_ = std::make_unique<TimeSeriesDetector>(
      package_->database(), package_->discretizer().cardinalities(),
      config.timeseries, rng);
  training_losses_ = shard_seed
                         ? timeseries_->train_sharded(shards, *shard_seed)
                         : timeseries_->train(shards.front().fragments, rng);
  timeseries_->choose_k(val_disc);
}

CombinedDetector::CombinedDetector(
    std::unique_ptr<PackageLevelDetector> package,
    std::unique_ptr<TimeSeriesDetector> timeseries)
    : package_(std::move(package)), timeseries_(std::move(timeseries)) {
  if (!package_ || !timeseries_) {
    throw std::invalid_argument("CombinedDetector: null component");
  }
}

CombinedDetector::Stream CombinedDetector::make_stream() const {
  Stream s;
  s.ts = timeseries_->make_stream();
  return s;
}

CombinedVerdict CombinedDetector::classify_and_consume(
    Stream& stream, std::span<const double> raw) const {
  return classify_and_consume(stream, raw, timeseries_->k());
}

CombinedVerdict CombinedDetector::classify_and_consume(Stream& stream,
                                                       std::span<const double> raw,
                                                       std::size_t k) const {
  CombinedVerdict verdict;
  const PackageVerdict pkg = package_->classify(raw);
  if (pkg.anomaly) {
    // Bloom miss: anomalous without consulting the LSTM (Fig. 3).
    verdict.package_level = true;
    verdict.anomaly = true;
  } else {
    verdict.timeseries_level =
        timeseries_->is_anomalous(stream.ts, pkg.signature_id, k);
    verdict.anomaly = verdict.timeseries_level;
  }
  // All packages, normal or anomalous, extend the time-series input; the
  // noisy bit carries the verdict forward.
  timeseries_->consume(stream.ts, pkg.discrete, verdict.anomaly);
  return verdict;
}

}  // namespace mlad::detect
