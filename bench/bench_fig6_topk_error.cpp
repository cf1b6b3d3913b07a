// Figure 6 reproduction: top-k error of the stacked LSTM on the training
// and validation sets, trained with and without probabilistic noise, for
// k = 1..10 — plus the paper's choice rule (minimal k with validation
// error < θ = 0.05).
#include <cstdio>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "detect/package_detector.hpp"
#include "detect/timeseries_detector.hpp"
#include "ics/dataset.hpp"

int main() {
  using namespace mlad;
  const bench::Scale scale = bench::scale_from_env();
  bench::print_header("Figure 6 — top-k error, ±probabilistic noise", scale);

  const ics::SimulationResult capture = bench::make_capture(scale);
  const ics::DatasetSplit split = ics::split_dataset(capture.packages, {});
  auto train_frag_rows = detect::fragment_raw_rows(split.train_fragments);
  auto val_frag_rows = detect::fragment_raw_rows(split.validation_fragments);

  // Shared package-level model (discretizer + signature database).
  std::vector<sig::RawRow> train_rows;
  for (const auto& f : train_frag_rows) {
    train_rows.insert(train_rows.end(), f.begin(), f.end());
  }
  for (const auto& f :
       detect::fragment_raw_rows(split.train_short_fragments)) {
    train_rows.insert(train_rows.end(), f.begin(), f.end());
  }
  const auto specs = ics::default_feature_specs();
  Rng fit_rng(7);
  const detect::PackageLevelDetector package(train_rows, specs, fit_rng);

  auto discretize = [&](const std::vector<std::vector<sig::RawRow>>& frags) {
    std::vector<detect::DiscreteFragment> out;
    for (const auto& f : frags) {
      out.push_back(package.discretizer().transform_all(f));
    }
    return out;
  };
  const auto train_disc = discretize(train_frag_rows);
  const auto val_disc = discretize(val_frag_rows);

  const double theta = 0.05;
  const std::size_t max_k = 10;

  struct Variant {
    const char* label;
    bool noise;
    std::vector<double> train_curve;
    std::vector<double> val_curve;
    std::size_t chosen_k = 0;
    double seconds = 0.0;
  } variants[] = {{"with noise", true, {}, {}, 0, 0.0},
                  {"without noise", false, {}, {}, 0, 0.0}};

  for (Variant& v : variants) {
    detect::TimeSeriesConfig cfg;
    cfg.hidden_dims = scale.hidden;
    cfg.epochs = scale.epochs;
    cfg.truncate_steps = 48;
    cfg.theta = theta;
    cfg.max_k = max_k;
    cfg.noise.enabled = v.noise;
    Rng rng(11);
    detect::TimeSeriesDetector detector(
        package.database(), package.discretizer().cardinalities(), cfg, rng);
    Stopwatch sw;
    detector.train(train_disc, rng);
    v.seconds = sw.elapsed_seconds();
    v.train_curve = detector.top_k_error_curve(train_disc, max_k);
    v.val_curve = detector.top_k_error_curve(val_disc, max_k);
    v.chosen_k = detector.choose_k(val_disc);
  }

  TablePrinter table({"k", "train err (noise)", "val err (noise)",
                      "train err (no noise)", "val err (no noise)"});
  for (std::size_t k = 1; k <= max_k; ++k) {
    table.add_row({std::to_string(k), fixed(variants[0].train_curve[k - 1], 4),
                   fixed(variants[0].val_curve[k - 1], 4),
                   fixed(variants[1].train_curve[k - 1], 4),
                   fixed(variants[1].val_curve[k - 1], 4)});
  }
  std::printf("%s", table.str().c_str());
  std::printf("\nChoice rule (min k with val err < %.2f): with noise k=%zu, "
              "without noise k=%zu  (paper: k=4)\n",
              theta, variants[0].chosen_k, variants[1].chosen_k);
  std::printf("Training time: %.1f s (noise) / %.1f s (no noise)  "
              "(paper: ~35 min at 2x256, 50 epochs on a 3.4 GHz CPU)\n",
              variants[0].seconds, variants[1].seconds);
  return 0;
}
