// Ablation (DESIGN.md §6): stacked depth and hidden width of the LSTM
// versus validation top-k error and training cost. The paper fixes 2×256;
// this sweep shows how much capacity the task actually needs. Each shape
// trains the whole framework (train_framework) with only hidden_dims
// changed, and its curve is read like Fig. 6's.
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"

int main() {
  using namespace mlad;
  const bench::Scale scale = bench::scale_from_env();
  bench::print_header("Ablation — LSTM depth x width", scale);

  const ics::SimulationResult capture = bench::make_capture(scale);

  const std::vector<std::vector<std::size_t>> shapes = {
      {16}, {32}, {64}, {128}, {32, 32}, {64, 64}};

  TablePrinter table({"hidden dims", "params", "train s", "val err k=1",
                      "val err k=4", "chosen k"});
  for (const auto& shape : shapes) {
    detect::PipelineConfig cfg = bench::pipeline_config(scale);
    cfg.combined.timeseries.hidden_dims = shape;
    const detect::TrainedFramework fw =
        detect::train_framework(capture.packages, cfg);
    std::string dims;
    for (std::size_t i = 0; i < shape.size(); ++i) {
      if (i) dims += "x";
      dims += std::to_string(shape[i]);
    }
    const nn::TopKErrorCurve val =
        bench::top_k_curves(*fw.detector, fw.split).validation;
    table.add_row(
        {dims,
         std::to_string(fw.detector->timeseries_level().model().param_count()),
         fixed(fw.train_seconds, 1), fixed(val.error(1), 4),
         fixed(val.error(4), 4), std::to_string(fw.detector->chosen_k())});
  }
  std::printf("%s", table.str().c_str());
  return 0;
}
