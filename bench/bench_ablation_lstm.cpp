// Ablation (DESIGN.md §6): stacked depth and hidden width of the LSTM
// versus validation top-k error and training cost. The paper fixes 2×256;
// this sweep shows how much capacity the task actually needs.
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
  bench::print_header("Ablation — LSTM depth x width", scale);

  const ics::SimulationResult capture = bench::make_capture(scale);
  const ics::DatasetSplit split = ics::split_dataset(capture.packages, {});
  const auto train_frag_rows = detect::fragment_raw_rows(split.train_fragments);
  const auto val_frag_rows =
      detect::fragment_raw_rows(split.validation_fragments);

  std::vector<sig::RawRow> train_rows;
  for (const auto& f : train_frag_rows) {
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

  const std::vector<std::vector<std::size_t>> shapes = {
      {16}, {32}, {64}, {128}, {32, 32}, {64, 64}};

  TablePrinter table({"hidden dims", "params", "train s", "val err k=1",
                      "val err k=4", "chosen k"});
  for (const auto& shape : shapes) {
    detect::TimeSeriesConfig cfg;
    cfg.hidden_dims = shape;
    cfg.epochs = scale.epochs;
    cfg.truncate_steps = 48;
    cfg.max_k = 10;
    Rng rng(11);
    detect::TimeSeriesDetector detector(
        package.database(), package.discretizer().cardinalities(), cfg, rng);
    Stopwatch sw;
    detector.train(train_disc, rng);
    const double seconds = sw.elapsed_seconds();
    std::string dims;
    for (std::size_t i = 0; i < shape.size(); ++i) {
      if (i) dims += "x";
      dims += std::to_string(shape[i]);
    }
    const std::vector<double> val_curve =
        detector.top_k_error_curve(val_disc, cfg.max_k);
    table.add_row({dims, std::to_string(detector.model().param_count()),
                   fixed(seconds, 1), fixed(val_curve[0], 4),
                   fixed(val_curve[3], 4),
                   std::to_string(detector.choose_k(val_disc))});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}
