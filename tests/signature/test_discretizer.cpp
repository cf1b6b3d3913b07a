#include "signature/discretizer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "ics/features.hpp"
#include "ics/simulator.hpp"

namespace mlad::sig {
namespace {

std::vector<RawRow> sample_rows() {
  // col0: categorical {3, 5}, col1: uniform 0..10, col2+col3: two 2-D blobs.
  std::vector<RawRow> rows;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const double cat = i % 2 == 0 ? 3.0 : 5.0;
    const double uni = rng.uniform(0.0, 10.0);
    const bool blob = rng.bernoulli(0.5);
    const double bx = blob ? rng.normal(0, 0.1) : rng.normal(4, 0.1);
    const double by = blob ? rng.normal(0, 0.1) : rng.normal(4, 0.1);
    rows.push_back({cat, uni, bx, by});
  }
  return rows;
}

std::vector<FeatureSpec> sample_specs() {
  return {
      {"cat", FeatureKind::kDiscrete, {0}, 0},
      {"uni", FeatureKind::kInterval, {1}, 5},
      {"blob", FeatureKind::kKmeans, {2, 3}, 2},
  };
}

TEST(Discretizer, CardinalitiesIncludeOutOfRange) {
  const auto rows = sample_rows();
  Rng rng(2);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  const auto cards = d.cardinalities();
  ASSERT_EQ(cards.size(), 3u);
  EXPECT_EQ(cards[0], 3u);  // {3,5} + OOR
  EXPECT_EQ(cards[1], 6u);  // 5 bins + OOR
  EXPECT_EQ(cards[2], 3u);  // 2 clusters + OOR
  EXPECT_EQ(d.one_hot_dim(), 12u);
}

TEST(Discretizer, DiscreteFeatureMapsSeenValues) {
  const auto rows = sample_rows();
  Rng rng(3);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  const DiscreteRow a = d.transform(RawRow{3.0, 1.0, 0.0, 0.0});
  const DiscreteRow b = d.transform(RawRow{5.0, 1.0, 0.0, 0.0});
  EXPECT_NE(a[0], b[0]);
  EXPECT_LT(a[0], 2u);
  EXPECT_LT(b[0], 2u);
}

TEST(Discretizer, DiscreteFeatureUnseenGoesOutOfRange) {
  const auto rows = sample_rows();
  Rng rng(4);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  const DiscreteRow r = d.transform(RawRow{7.0, 1.0, 0.0, 0.0});
  EXPECT_EQ(r[0], 2u);  // OOR id = cardinality - 1
}

TEST(Discretizer, IntervalPartitionsEvenly) {
  std::vector<RawRow> rows;
  for (int i = 0; i <= 100; ++i) rows.push_back({static_cast<double>(i)});
  const std::vector<FeatureSpec> specs = {
      {"x", FeatureKind::kInterval, {0}, 4}};
  Rng rng(5);
  const Discretizer d = Discretizer::fit(rows, specs, rng);
  EXPECT_EQ(d.transform(RawRow{0.0})[0], 0u);
  EXPECT_EQ(d.transform(RawRow{30.0})[0], 1u);
  EXPECT_EQ(d.transform(RawRow{60.0})[0], 2u);
  EXPECT_EQ(d.transform(RawRow{99.0})[0], 3u);
  EXPECT_EQ(d.transform(RawRow{100.0})[0], 3u);  // hi boundary stays in range
}

TEST(Discretizer, IntervalOutsideRangeIsOor) {
  std::vector<RawRow> rows;
  for (int i = 0; i <= 10; ++i) rows.push_back({static_cast<double>(i)});
  const std::vector<FeatureSpec> specs = {
      {"x", FeatureKind::kInterval, {0}, 5}};
  Rng rng(6);
  const Discretizer d = Discretizer::fit(rows, specs, rng);
  EXPECT_EQ(d.transform(RawRow{-0.5})[0], 5u);
  EXPECT_EQ(d.transform(RawRow{10.5})[0], 5u);
}

TEST(Discretizer, KmeansGroupUsesAllColumns) {
  const auto rows = sample_rows();
  Rng rng(7);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  const DiscreteRow a = d.transform(RawRow{3.0, 1.0, 0.0, 0.0});
  const DiscreteRow b = d.transform(RawRow{3.0, 1.0, 4.0, 4.0});
  EXPECT_NE(a[2], b[2]);
  // A point far from both blobs is out-of-range for the group.
  const DiscreteRow c = d.transform(RawRow{3.0, 1.0, 50.0, -50.0});
  EXPECT_EQ(c[2], 2u);
}

TEST(Discretizer, TrainingRowsNeverOutOfRange) {
  // Property: every training row must discretize fully in-range.
  const auto rows = sample_rows();
  Rng rng(8);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  const auto cards = d.cardinalities();
  for (const auto& row : rows) {
    const DiscreteRow r = d.transform(row);
    for (std::size_t f = 0; f < r.size(); ++f) {
      EXPECT_LT(r[f], cards[f] - 1) << "feature " << f;
    }
  }
}

TEST(Discretizer, TransformAllMatchesTransform) {
  const auto rows = sample_rows();
  Rng rng(9);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  const auto all = d.transform_all(rows);
  ASSERT_EQ(all.size(), rows.size());
  EXPECT_EQ(all[17], d.transform(rows[17]));
}

TEST(Discretizer, OneHotEncodeLayout) {
  const DiscreteRow row = {1, 0, 2};
  const std::vector<std::size_t> cards = {3, 2, 4};
  std::vector<float> x;
  one_hot_encode(row, cards, 1, x);
  ASSERT_EQ(x.size(), 10u);  // 3+2+4 + 1 extra
  EXPECT_FLOAT_EQ(x[1], 1.0f);   // feature 0 value 1
  EXPECT_FLOAT_EQ(x[3], 1.0f);   // feature 1 value 0 at offset 3
  EXPECT_FLOAT_EQ(x[7], 1.0f);   // feature 2 value 2 at offset 5
  EXPECT_FLOAT_EQ(x[9], 0.0f);   // extra bit zeroed
  float sum = 0;
  for (float v : x) sum += v;
  EXPECT_FLOAT_EQ(sum, 3.0f);
}

TEST(Discretizer, OneHotEncodeValidates) {
  std::vector<float> x;
  EXPECT_THROW(one_hot_encode({1}, std::vector<std::size_t>{2, 2}, 0, x),
               std::invalid_argument);
  EXPECT_THROW(one_hot_encode({5}, std::vector<std::size_t>{2}, 0, x),
               std::out_of_range);
}

/// The per-feature transform as it was before the centroid tables: gather
/// the k-means columns and ask kmeans_assign_or_oor, lower_bound the
/// discrete values. transform_into must reproduce its ids exactly.
DiscreteRow reference_transform(const Discretizer& d, const RawRow& raw) {
  DiscreteRow out;
  for (std::size_t i = 0; i < d.feature_count(); ++i) {
    const FittedFeature& f = d.feature(i);
    switch (f.spec.kind) {
      case FeatureKind::kDiscrete: {
        const double v = raw[f.spec.source_columns[0]];
        const auto it = std::lower_bound(f.observed_values.begin(),
                                         f.observed_values.end(), v);
        out.push_back(it != f.observed_values.end() && *it == v
                          ? static_cast<std::uint16_t>(
                                it - f.observed_values.begin())
                          : f.out_of_range_id());
        break;
      }
      case FeatureKind::kKmeans: {
        std::vector<double> point;
        for (std::size_t c : f.spec.source_columns) point.push_back(raw[c]);
        out.push_back(
            static_cast<std::uint16_t>(kmeans_assign_or_oor(*f.kmeans, point)));
        break;
      }
      case FeatureKind::kInterval: {
        const double v = raw[f.spec.source_columns[0]];
        if (v < f.lo || v > f.hi) {
          out.push_back(f.out_of_range_id());
          break;
        }
        const std::size_t bins = f.cardinality - 1;
        const double width = (f.hi - f.lo) / static_cast<double>(bins);
        out.push_back(width <= 0.0 ? 0
                                   : static_cast<std::uint16_t>(std::min(
                                         static_cast<std::size_t>(
                                             (v - f.lo) / width),
                                         bins - 1)));
        break;
      }
    }
  }
  return out;
}

/// Simulator rows, then copies with one column pushed far out of range,
/// set to NaN, ±inf or -0 — every column in turn.
std::vector<RawRow> fixture_and_hostile_rows(std::vector<RawRow> rows) {
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(), -0.0,
                             1e9, -1e9};
  const std::size_t base = std::min<std::size_t>(rows.size(), 60);
  for (std::size_t r = 0; r < base; ++r) {
    for (std::size_t col = 0; col < rows[r].size(); ++col) {
      RawRow bad = rows[r];
      bad[col] = specials[(r + col) % std::size(specials)];
      rows.push_back(std::move(bad));
    }
  }
  return rows;
}

TEST(Discretizer, TransformIntoMatchesTheGatherReference) {
  ics::SimulatorConfig cfg;
  cfg.cycles = 400;
  cfg.seed = 11;
  const std::vector<RawRow> sim =
      ics::to_raw_rows(ics::GasPipelineSimulator(cfg).run().packages);
  // 40 PID clusters: more than one stack block of centroid partial sums.
  for (const std::size_t pid_clusters : {32u, 40u}) {
    Rng rng(5);
    const Discretizer d = Discretizer::fit(
        sim, ics::default_feature_specs(20, 10, pid_clusters), rng);
    // from_features is the load path: it must rebuild the same tables.
    std::vector<FittedFeature> features;
    for (std::size_t i = 0; i < d.feature_count(); ++i) {
      features.push_back(d.feature(i));
    }
    const Discretizer loaded = Discretizer::from_features(std::move(features));
    DiscreteRow reused = {7, 7, 7};  // wrong size on purpose
    DiscreteRow reused_loaded;
    std::size_t oor = 0;
    for (const RawRow& raw : fixture_and_hostile_rows(sim)) {
      const DiscreteRow want = reference_transform(d, raw);
      d.transform_into(raw, reused);
      loaded.transform_into(raw, reused_loaded);
      ASSERT_EQ(reused, want);
      ASSERT_EQ(reused_loaded, want);
      ASSERT_EQ(d.transform(raw), want);
      for (std::size_t i = 0; i < want.size(); ++i) {
        oor += want[i] == d.feature(i).out_of_range_id() ? 1 : 0;
      }
    }
    EXPECT_GT(oor, 0u);  // the hostile rows did reach the OOR ids
  }
}

TEST(Discretizer, TransformIntoRejectsShortRows) {
  const auto rows = sample_rows();
  Rng rng(2);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  DiscreteRow out;
  EXPECT_THROW(d.transform_into(RawRow{3.0, 1.0, 0.0}, out),
               std::out_of_range);
  EXPECT_THROW(d.transform(RawRow{}), std::out_of_range);
}

TEST(Discretizer, FromFeaturesRejectsMalformedState) {
  const auto rows = sample_rows();
  Rng rng(2);
  const Discretizer d = Discretizer::fit(rows, sample_specs(), rng);
  auto features = [&] {
    std::vector<FittedFeature> f;
    for (std::size_t i = 0; i < d.feature_count(); ++i) {
      f.push_back(d.feature(i));
    }
    return f;
  };
  auto unsorted = features();
  std::swap(unsorted[0].observed_values[0], unsorted[0].observed_values[1]);
  EXPECT_THROW(Discretizer::from_features(unsorted), std::invalid_argument);
  auto nan_value = features();
  nan_value[0].observed_values[1] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Discretizer::from_features(nan_value), std::invalid_argument);
  auto short_centroid = features();
  short_centroid[2].kmeans->centroids[1].pop_back();
  EXPECT_THROW(Discretizer::from_features(short_centroid),
               std::invalid_argument);
  auto no_model = features();
  no_model[2].kmeans.reset();
  EXPECT_THROW(Discretizer::from_features(no_model), std::invalid_argument);
  auto bad_kind = features();
  bad_kind[1].spec.kind = static_cast<FeatureKind>(9);
  EXPECT_THROW(Discretizer::from_features(bad_kind), std::invalid_argument);
}

TEST(Discretizer, FitValidatesInput) {
  Rng rng(10);
  EXPECT_THROW(Discretizer::fit({}, sample_specs(), rng),
               std::invalid_argument);
  const std::vector<RawRow> rows = {{1.0}};
  const std::vector<FeatureSpec> no_cols = {
      {"bad", FeatureKind::kDiscrete, {}, 0}};
  EXPECT_THROW(Discretizer::fit(rows, no_cols, rng), std::invalid_argument);
  const std::vector<FeatureSpec> zero_bins = {
      {"bad", FeatureKind::kInterval, {0}, 0}};
  EXPECT_THROW(Discretizer::fit(rows, zero_bins, rng), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::sig
