// Shared scaffolding for the experiment harnesses (DESIGN.md §6):
// bench_paper prints every table and figure of the shared capture from one
// run, bench_ablation_lstm sweeps LSTM shapes on it.
//
// Scale control: by default every harness runs a CPU-friendly reduction
// (smaller capture, smaller LSTM, fewer epochs) so the full bench suite
// finishes in minutes. `MLAD_SCALE=paper` switches to the paper's settings
// (2×256 LSTM, 50 epochs, full-size capture); intermediate `MLAD_SCALE=big`
// is a compromise. Each harness prints its results to stdout; the default
// scale's detection quality is committed as BENCH_quality.json
// (`bench_paper --json`) and guarded by ctest.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "detect/pipeline.hpp"
#include "ics/simulator.hpp"
#include "nn/softmax.hpp"

namespace mlad::bench {

struct Scale {
  std::size_t cycles;              ///< simulator supervisory cycles
  std::size_t epochs;              ///< LSTM training epochs
  std::vector<std::size_t> hidden; ///< stacked layer widths
  const char* name;
};

inline Scale scale_from_env() {
  const char* env = std::getenv("MLAD_SCALE");
  const std::string s = env ? env : "default";
  if (s == "paper") return {20000, 50, {256, 256}, "paper"};
  if (s == "big") return {16000, 25, {128, 128}, "big"};
  return {8000, 15, {64}, "default"};
}

/// The capture every harness shares (fixed seed ⇒ identical dataset across
/// bench binaries, like analysing one recorded pcap).
inline ics::SimulationResult make_capture(const Scale& scale,
                                          std::uint64_t seed = 1234) {
  ics::SimulatorConfig cfg;
  cfg.cycles = scale.cycles;
  cfg.seed = seed;
  ics::GasPipelineSimulator sim(cfg);
  return sim.run();
}

inline detect::PipelineConfig pipeline_config(const Scale& scale) {
  detect::PipelineConfig cfg;
  cfg.combined.timeseries.hidden_dims = scale.hidden;
  cfg.combined.timeseries.epochs = scale.epochs;
  cfg.combined.timeseries.truncate_steps = 48;
  cfg.combined.timeseries.max_k = 10;
  cfg.seed = 5;
  return cfg;
}

/// Fig. 6's curves of a trained framework: its LSTM level's top-k misses
/// on the split's anomaly-free train and validation fragments, discretized
/// by its own package level, for k = 1..max_k of its config.
struct TopKCurves {
  nn::TopKErrorCurve train;
  nn::TopKErrorCurve validation;
};

inline TopKCurves top_k_curves(const detect::CombinedDetector& detector,
                               const ics::DatasetSplit& split) {
  const auto discretize = [&](std::span<const ics::PackageFragment> frags) {
    std::vector<detect::DiscreteFragment> out;
    for (const auto& rows : detect::fragment_raw_rows(frags)) {
      out.push_back(detector.package_level().discretizer().transform_all(rows));
    }
    return out;
  };
  const detect::TimeSeriesDetector& ts = detector.timeseries_level();
  const std::size_t max_k = ts.config().max_k;
  return {ts.rank_targets(discretize(split.train_fragments), max_k),
          ts.rank_targets(discretize(split.validation_fragments), max_k)};
}

inline void print_header(const char* experiment, const Scale& scale) {
  std::printf("==============================================================\n");
  std::printf("%s   [scale=%s: cycles=%zu epochs=%zu hidden=%zu",
              experiment, scale.name, scale.cycles, scale.epochs,
              scale.hidden.front());
  for (std::size_t i = 1; i < scale.hidden.size(); ++i) {
    std::printf("x%zu", scale.hidden[i]);
  }
  std::printf("]\n");
  std::printf("==============================================================\n");
}

}  // namespace mlad::bench
