// Ablation: stacked LSTM vs vanilla (Elman) RNN on the next-signature
// prediction task — the paper motivates LSTM memory cells by their
// advantage over "traditional RNNs" ([43],[44]); this bench measures that
// advantage on the actual gas-pipeline workload at matched parameter
// budgets and identical training loops.
#include <cstdio>

#include "bench_common.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"
#include "detect/package_detector.hpp"
#include "detect/timeseries_detector.hpp"
#include "ics/dataset.hpp"
#include "nn/rnn.hpp"
#include "nn/trainer.hpp"

namespace {

using namespace mlad;

/// A fragment with dense one-hot inputs, the form train_fragment and
/// top_k_misses take.
struct DenseFragment {
  std::vector<std::vector<float>> inputs;
  std::vector<std::size_t> targets;

  std::size_t steps() const { return inputs.size(); }
};

/// Encode fragments for next-signature prediction (inputs one-hot + zeroed
/// noisy bit; targets = next package's dense signature id).
std::vector<DenseFragment> encode(
    const std::vector<detect::DiscreteFragment>& fragments,
    const sig::SignatureDatabase& db,
    std::span<const std::size_t> cardinalities) {
  std::vector<DenseFragment> out;
  for (const auto& frag : fragments) {
    if (frag.size() < 2) continue;
    DenseFragment f;
    std::vector<float> x;
    for (std::size_t t = 0; t + 1 < frag.size(); ++t) {
      const auto id = db.id_of(frag[t + 1]);
      if (!id) continue;  // validation rows outside the database
      sig::one_hot_encode(frag[t], cardinalities, 1, x);
      f.inputs.push_back(x);
      f.targets.push_back(*id);
    }
    if (f.steps() > 0) out.push_back(std::move(f));
  }
  return out;
}

template <typename Model>
double sweep_top_k(const Model& model, const std::vector<DenseFragment>& frags,
                   std::size_t k) {
  std::size_t misses = 0;
  std::size_t total = 0;
  for (const auto& f : frags) {
    misses += model.top_k_misses(f.inputs, f.targets, k);
    total += f.steps();
  }
  return total ? static_cast<double>(misses) / static_cast<double>(total) : 0.0;
}

template <typename Model>
double train_loop(Model& model, const std::vector<DenseFragment>& frags,
                  std::size_t epochs, Rng& rng) {
  nn::Adam opt(3e-3);
  const auto slots = model.param_slots();
  std::vector<std::size_t> order(frags.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Stopwatch sw;
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    rng.shuffle(order);
    for (std::size_t fi : order) {
      const auto& f = frags[fi];
      for (std::size_t start = 0; start < f.steps(); start += 48) {
        const std::size_t end = std::min(f.steps(), start + 48);
        model.zero_grads();
        model.train_fragment(
            std::span(f.inputs.data() + start, end - start),
            std::span(f.targets.data() + start, end - start));
        opt.step(slots, nn::clip_scale(slots, 5.0));
      }
    }
  }
  return sw.elapsed_seconds();
}

}  // namespace

int main() {
  const bench::Scale scale = bench::scale_from_env();
  bench::print_header("Ablation — stacked LSTM vs vanilla RNN", scale);

  const ics::SimulationResult capture = bench::make_capture(scale);
  const ics::DatasetSplit split = ics::split_dataset(capture.packages, {});
  const auto train_rows = detect::fragment_raw_rows(split.train_fragments);
  const auto val_rows = detect::fragment_raw_rows(split.validation_fragments);

  std::vector<sig::RawRow> flat;
  for (const auto& f : train_rows) flat.insert(flat.end(), f.begin(), f.end());
  const auto specs = ics::default_feature_specs();
  Rng fit_rng(7);
  const detect::PackageLevelDetector package(flat, specs, fit_rng);
  const auto cards = package.discretizer().cardinalities();

  auto discretize = [&](const std::vector<std::vector<sig::RawRow>>& frags) {
    std::vector<detect::DiscreteFragment> out;
    for (const auto& f : frags) {
      out.push_back(package.discretizer().transform_all(f));
    }
    return out;
  };
  const auto train_enc =
      encode(discretize(train_rows), package.database(), cards);
  const auto val_enc = encode(discretize(val_rows), package.database(), cards);

  std::size_t input_dim = 1;
  for (std::size_t c : cards) input_dim += c;
  const std::size_t classes = package.database().size();

  TablePrinter table({"model", "params", "train s", "val err k=1",
                      "val err k=4", "val err k=8"});
  auto report = [&](const char* name, auto& model, double seconds) {
    table.add_row({name, std::to_string(model.param_count()), fixed(seconds, 1),
                   fixed(sweep_top_k(model, val_enc, 1), 4),
                   fixed(sweep_top_k(model, val_enc, 4), 4),
                   fixed(sweep_top_k(model, val_enc, 8), 4)});
  };

  {
    nn::SequenceModelConfig cfg;
    cfg.input_dim = input_dim;
    cfg.num_classes = classes;
    cfg.hidden_dims = scale.hidden;
    nn::SequenceModel lstm(cfg);
    Rng rng(11);
    lstm.init_params(rng);
    const double seconds = train_loop(lstm, train_enc, scale.epochs, rng);
    report("LSTM", lstm, seconds);
  }
  {
    // Matched parameter budget: an Elman cell has ~1/4 the parameters of an
    // LSTM cell at equal width, so double the width (≈half the params — the
    // comparison brackets the LSTM budget from below).
    std::vector<std::size_t> hidden = scale.hidden;
    for (auto& h : hidden) h *= 2;
    nn::RnnClassifier rnn(input_dim, classes, hidden);
    Rng rng(11);
    rnn.init_params(rng);
    const double seconds = train_loop(rnn, train_enc, scale.epochs, rng);
    report("RNN (2x width)", rnn, seconds);
  }
  std::printf("%s", table.str().c_str());
  std::printf("\n(the paper's premise: LSTM memory cells beat traditional "
              "RNNs on temporal prediction — lower val err at equal k)\n");
  return 0;
}
