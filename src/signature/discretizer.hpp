// Feature discretization (§IV-A/§IV-B): transforms a raw m-dimensional
// package feature vector x(t) into the o-dimensional discrete vector c(t)
// from which signatures are generated.
//
// Three per-feature strategies, matching Table III:
//   - kDiscrete: feature is already categorical; ids are learned from the
//     training data, unseen raw values map to the out-of-range id.
//   - kKmeans: naturally-clustered continuous feature(s) — one or several
//     raw columns clustered jointly (the 5 PID parameters form one group).
//   - kInterval: even-interval partition of [min,max] with `bins` cells.
// Every strategy reserves one extra "out-of-range" value (the paper's "+1"
// in Table III), used for values unseen in training and targeted by the
// probabilistic-noise augmentation.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "signature/kmeans.hpp"

namespace mlad::sig {

enum class FeatureKind { kDiscrete, kKmeans, kInterval };

/// Declarative description of one *output* discrete feature.
struct FeatureSpec {
  std::string name;
  FeatureKind kind = FeatureKind::kDiscrete;
  /// Raw input columns feeding this feature (one, or several for a grouped
  /// k-means feature such as the PID parameter block).
  std::vector<std::size_t> source_columns;
  /// Requested bins/clusters for continuous kinds (ignored for kDiscrete).
  std::size_t bins = 2;
};

/// A raw package feature vector (row of the dataset's numeric features).
using RawRow = std::vector<double>;
/// The discretized vector c(t); one id per FeatureSpec.
using DiscreteRow = std::vector<std::uint16_t>;

/// Fitted transform for a single feature.
struct FittedFeature {
  FeatureSpec spec;
  std::size_t cardinality = 0;  ///< including the out-of-range id
  // kDiscrete state: sorted observed raw values (exact match lookup).
  std::vector<double> observed_values;
  // kKmeans state:
  std::optional<KmeansResult> kmeans;
  // kInterval state:
  double lo = 0.0;
  double hi = 0.0;

  /// Discretize the relevant columns of `raw`; the last id (cardinality-1)
  /// is the out-of-range value.
  std::uint16_t transform(std::span<const double> raw) const;
  std::uint16_t out_of_range_id() const {
    return static_cast<std::uint16_t>(cardinality - 1);
  }
};

/// The full x(t) → c(t) transform.
class Discretizer {
 public:
  /// Fit all strategies on training rows. Deterministic given `rng`.
  static Discretizer fit(std::span<const RawRow> rows,
                         std::span<const FeatureSpec> specs, Rng& rng);

  /// Reassemble from fitted per-feature state (deserialization path).
  static Discretizer from_features(std::vector<FittedFeature> features);

  DiscreteRow transform(std::span<const double> raw) const;
  std::vector<DiscreteRow> transform_all(std::span<const RawRow> rows) const;

  std::size_t feature_count() const { return features_.size(); }
  const FittedFeature& feature(std::size_t i) const { return features_.at(i); }

  /// Σ cardinalities — the width of the one-hot encoding of c(t).
  std::size_t one_hot_dim() const;

  /// Cardinality of each output feature, in order.
  std::vector<std::size_t> cardinalities() const;

 private:
  std::vector<FittedFeature> features_;
};

/// One-hot encode a discrete row into `out` (resized to one_hot_dim +
/// `extra_bits` trailing zeros — the caller appends e.g. the noisy bit).
void one_hot_encode(const DiscreteRow& row,
                    std::span<const std::size_t> cardinalities,
                    std::size_t extra_bits, std::vector<float>& out);

/// The same encoding as column ids: append the index of each 1 that
/// one_hot_encode would write to `ids`, ascending (one per feature).
void append_one_hot_ids(const DiscreteRow& row,
                        std::span<const std::size_t> cardinalities,
                        std::vector<std::uint32_t>& ids);

}  // namespace mlad::sig
