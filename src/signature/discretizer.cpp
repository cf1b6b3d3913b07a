#include "signature/discretizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mlad::sig {
namespace {

std::vector<double> gather(std::span<const double> raw,
                           std::span<const std::size_t> cols) {
  std::vector<double> v;
  v.reserve(cols.size());
  for (std::size_t c : cols) {
    if (c >= raw.size()) {
      throw std::out_of_range("Discretizer: source column out of range");
    }
    v.push_back(raw[c]);
  }
  return v;
}

}  // namespace

Discretizer Discretizer::fit(std::span<const RawRow> rows,
                             std::span<const FeatureSpec> specs, Rng& rng) {
  if (rows.empty()) throw std::invalid_argument("Discretizer::fit: no rows");
  Discretizer d;
  d.features_.reserve(specs.size());
  for (const FeatureSpec& spec : specs) {
    if (spec.source_columns.empty()) {
      throw std::invalid_argument("Discretizer::fit: spec without columns (" +
                                  spec.name + ")");
    }
    FittedFeature f;
    f.spec = spec;
    switch (spec.kind) {
      case FeatureKind::kDiscrete: {
        const std::size_t col = spec.source_columns[0];
        std::vector<double> values;
        values.reserve(rows.size());
        for (const auto& r : rows) values.push_back(r.at(col));
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
        if (values.size() > std::numeric_limits<std::uint16_t>::max() - 1u) {
          throw std::invalid_argument(
              "Discretizer::fit: discrete feature '" + spec.name +
              "' has too many distinct values; declare it continuous");
        }
        f.observed_values = std::move(values);
        f.cardinality = f.observed_values.size() + 1;  // +1 out-of-range
        break;
      }
      case FeatureKind::kKmeans: {
        std::vector<std::vector<double>> points;
        points.reserve(rows.size());
        for (const auto& r : rows) points.push_back(gather(r, spec.source_columns));
        KmeansConfig kc;
        kc.clusters = spec.bins;
        f.kmeans = kmeans_fit(points, kc, rng);
        f.cardinality = f.kmeans->centroids.size() + 1;
        break;
      }
      case FeatureKind::kInterval: {
        const std::size_t col = spec.source_columns[0];
        double lo = std::numeric_limits<double>::max();
        double hi = std::numeric_limits<double>::lowest();
        for (const auto& r : rows) {
          lo = std::min(lo, r.at(col));
          hi = std::max(hi, r.at(col));
        }
        f.lo = lo;
        f.hi = hi;
        if (spec.bins == 0) {
          throw std::invalid_argument("Discretizer::fit: interval bins == 0");
        }
        f.cardinality = spec.bins + 1;
        break;
      }
    }
    d.features_.push_back(std::move(f));
  }
  d.build_tables();
  return d;
}

Discretizer Discretizer::from_features(std::vector<FittedFeature> features) {
  if (features.empty()) {
    throw std::invalid_argument("Discretizer::from_features: empty");
  }
  Discretizer d;
  d.features_ = std::move(features);
  d.build_tables();
  return d;
}

void Discretizer::build_tables() {
  centroid_tables_.assign(features_.size(), {});
  min_row_width_ = 0;
  for (std::size_t i = 0; i < features_.size(); ++i) {
    const FittedFeature& f = features_[i];
    const std::vector<std::size_t>& cols = f.spec.source_columns;
    if (cols.empty()) {
      throw std::invalid_argument("Discretizer: feature '" + f.spec.name +
                                  "' has no source column");
    }
    for (std::size_t c : cols) min_row_width_ = std::max(min_row_width_, c + 1);
    switch (f.spec.kind) {
      case FeatureKind::kDiscrete:
        // transform_feature counts the values below v, which is lower_bound's
        // index only over a strictly ascending (so NaN-free) list.
        for (std::size_t j = 1; j < f.observed_values.size(); ++j) {
          if (!(f.observed_values[j - 1] < f.observed_values[j])) {
            throw std::invalid_argument(
                "Discretizer: discrete feature '" + f.spec.name +
                "' values are not strictly ascending");
          }
        }
        break;
      case FeatureKind::kKmeans: {
        if (!f.kmeans || f.kmeans->centroids.empty() ||
            f.kmeans->max_radius.size() != f.kmeans->centroids.size()) {
          throw std::invalid_argument("Discretizer: k-means feature '" +
                                      f.spec.name + "' has no usable model");
        }
        const std::vector<std::vector<double>>& centroids = f.kmeans->centroids;
        const std::size_t clusters = centroids.size();
        std::vector<double>& table = centroid_tables_[i];
        table.resize(cols.size() * clusters);
        for (std::size_t c = 0; c < clusters; ++c) {
          if (centroids[c].size() != cols.size()) {
            throw std::invalid_argument("Discretizer: k-means feature '" +
                                        f.spec.name +
                                        "' centroid dimension mismatch");
          }
          for (std::size_t d = 0; d < cols.size(); ++d) {
            table[d * clusters + c] = centroids[c][d];
          }
        }
        break;
      }
      case FeatureKind::kInterval:
        break;
      default:
        throw std::invalid_argument("Discretizer: feature '" + f.spec.name +
                                    "' has an unknown kind");
    }
  }
}

std::uint16_t Discretizer::transform_feature(
    std::size_t i, std::span<const double> raw) const {
  const FittedFeature& f = features_[i];
  switch (f.spec.kind) {
    case FeatureKind::kDiscrete: {
      const double v = raw[f.spec.source_columns[0]];
      const std::vector<double>& seen = f.observed_values;
      // lower_bound's index as a branch-free count over the (few) sorted
      // values, then the same exact-match check.
      std::size_t below = 0;
      for (const double s : seen) below += s < v ? 1 : 0;
      if (below < seen.size() && seen[below] == v) {
        return static_cast<std::uint16_t>(below);
      }
      return f.out_of_range_id();
    }
    case FeatureKind::kKmeans: {
      // kmeans_assign_or_oor on the raw columns in place: every centroid's
      // squared distance is summed over ascending dimensions exactly as
      // squared_distance does, so the ids match bit for bit; the block of
      // partial sums lives on the stack.
      constexpr std::size_t kBlock = 32;
      const std::vector<std::size_t>& cols = f.spec.source_columns;
      const double* table = centroid_tables_[i].data();
      const std::size_t clusters = f.kmeans->centroids.size();
      double best = std::numeric_limits<double>::max();
      std::size_t best_c = 0;
      double d0 = 0.0;
      for (std::size_t cb = 0; cb < clusters; cb += kBlock) {
        const std::size_t n = std::min(kBlock, clusters - cb);
        double acc[kBlock];
        std::fill_n(acc, n, 0.0);
        for (std::size_t d = 0; d < cols.size(); ++d) {
          const double p = raw[cols[d]];
          const double* t = table + d * clusters + cb;
          for (std::size_t c = 0; c < n; ++c) {
            const double diff = p - t[c];
            acc[c] += diff * diff;
          }
        }
        if (cb == 0) d0 = acc[0];
        for (std::size_t c = 0; c < n; ++c) {
          if (acc[c] < best) {
            best = acc[c];
            best_c = cb + c;
          }
        }
      }
      // With no distance below DBL_MAX (NaN input) kmeans_assign falls back
      // to centroid 0, whose distance then decides.
      const double dist = std::sqrt(best_c == 0 ? d0 : best);
      // A zero radius (singleton cluster) still admits exact matches.
      if (dist > f.kmeans->max_radius[best_c] && dist > 0.0) {
        return static_cast<std::uint16_t>(clusters);  // OOR
      }
      return static_cast<std::uint16_t>(best_c);
    }
    case FeatureKind::kInterval: {
      const double v = raw[f.spec.source_columns[0]];
      if (v < f.lo || v > f.hi) return f.out_of_range_id();
      const std::size_t bins = f.cardinality - 1;
      const double width = (f.hi - f.lo) / static_cast<double>(bins);
      if (width <= 0.0) return 0;
      auto b = static_cast<std::size_t>((v - f.lo) / width);
      return static_cast<std::uint16_t>(std::min(b, bins - 1));
    }
  }
  throw std::logic_error("Discretizer: bad feature kind");
}

DiscreteRow Discretizer::transform(std::span<const double> raw) const {
  DiscreteRow out;
  transform_into(raw, out);
  return out;
}

void Discretizer::transform_into(std::span<const double> raw,
                                 DiscreteRow& out) const {
  if (raw.size() < min_row_width_) {
    throw std::out_of_range("Discretizer: source column out of range");
  }
  out.resize(features_.size());
  for (std::size_t i = 0; i < features_.size(); ++i) {
    out[i] = transform_feature(i, raw);
  }
}

std::vector<DiscreteRow> Discretizer::transform_all(
    std::span<const RawRow> rows) const {
  std::vector<DiscreteRow> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(transform(r));
  return out;
}

std::size_t Discretizer::one_hot_dim() const {
  std::size_t n = 0;
  for (const auto& f : features_) n += f.cardinality;
  return n;
}

std::vector<std::size_t> Discretizer::cardinalities() const {
  std::vector<std::size_t> out;
  out.reserve(features_.size());
  for (const auto& f : features_) out.push_back(f.cardinality);
  return out;
}

namespace {

/// Calls set(column) for each feature's one-hot column, ascending.
template <typename Set>
void for_each_one_hot_column(const DiscreteRow& row,
                             std::span<const std::size_t> cardinalities,
                             const Set& set) {
  if (row.size() != cardinalities.size()) {
    throw std::invalid_argument("one_hot_encode: row/cardinality mismatch");
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] >= cardinalities[i]) {
      throw std::out_of_range("one_hot_encode: id exceeds cardinality");
    }
    set(offset + row[i]);
    offset += cardinalities[i];
  }
}

}  // namespace

void one_hot_encode(const DiscreteRow& row,
                    std::span<const std::size_t> cardinalities,
                    std::size_t extra_bits, std::vector<float>& out) {
  std::size_t dim = extra_bits;
  for (std::size_t c : cardinalities) dim += c;
  out.assign(dim, 0.0f);
  for_each_one_hot_column(row, cardinalities,
                          [&](std::size_t col) { out[col] = 1.0f; });
}

void append_one_hot_ids(const DiscreteRow& row,
                        std::span<const std::size_t> cardinalities,
                        std::vector<std::uint32_t>& ids) {
  for_each_one_hot_column(row, cardinalities, [&](std::size_t col) {
    ids.push_back(static_cast<std::uint32_t>(col));
  });
}

}  // namespace mlad::sig
